"""Experiment orchestration: the ranking phase, evaluation sweeps, and reports.

Ranking and evaluation are separate steps joined by the ranking file, so
the one-time-per-domain ranking cost is paid once and reused. Evaluation
fans instance work through a bounded worker pool, records per-instance
ROUGE rows, and emits plot-ready CSV aggregates; compare/report render
cross-run tables from saved run manifests.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
import csv
import json
import os
import random
import time

from .corpus import Corpus, CorpusSplit, DomainRegistry, load_corpus, sample_icl_examples, split_corpus
from .lm import (
    FATAL_LM_ERRORS,
    CacheStats,
    CompletionClient,
    LmConfig,
    LmError,
    compute_max_tokens,
)
from .metrics import Reference, RougeScore, ScoreRow, aggregate, rouge_scores, tokenize
from .prompting import (
    DEFAULT_TEMPLATES,
    IclExample,
    PARSE_FAILED,
    ParsedOutput,
    PromptBundle,
    PromptTemplates,
    build_icl_prompt,
    build_qa_prompt,
    build_single_qa,
    build_vanilla,
    parse_output,
)
from .questions import (
    GlobalRanking,
    RankingError,
    RankingTable,
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

METRIC_COLUMNS = ("r1_p", "r1_r", "r1_f", "r2_p", "r2_r", "r2_f", "rl_p", "rl_r", "rl_f")


class HarnessError(Exception):
    pass


class MismatchedEvalSets(HarnessError):
    pass


@dataclass(frozen=True)
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
    out: str = "."
    cache_dir: str | None = None
    replay_dir: str | None = None
    domains: tuple[str, ...] | None = None
    templates: PromptTemplates = DEFAULT_TEMPLATES
    allow_model_mismatch: bool = False
    overlap_mode: str = "multiset"
    global_method: str = "precision"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown scope {self.scope!r}")
        bad = [k for k in self.k_values if not 0 <= k <= 10]
        if bad:
            raise ValueError(f"k values outside [0, 10]: {bad}")

    def snapshot(self) -> dict:
        snap = asdict(self)
        return snap


def config_from_file(path, **overrides) -> ExperimentConfig:
    """Build a config from a JSON file, then apply non-None overrides."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return config_from_dict(doc, **overrides)


def config_from_dict(doc: dict, **overrides) -> ExperimentConfig:
    doc = dict(doc)
    lm_doc = dict(doc.pop("lm", {}))
    if "stop_sequences" in lm_doc:
        lm_doc["stop_sequences"] = tuple(lm_doc["stop_sequences"])
    templates_doc = doc.pop("templates", None)
    templates = PromptTemplates(**templates_doc) if templates_doc else DEFAULT_TEMPLATES
    if "k_values" in doc:
        doc["k_values"] = tuple(doc["k_values"])
    if doc.get("domains") is not None:
        doc["domains"] = tuple(doc["domains"])
    for key, value in overrides.items():
        if value is None:
            continue
        if key in ("model", "backend", "endpoint", "max_tokens", "greedy", "timeout",
                   "max_retries", "max_in_flight"):
            lm_doc[key] = value
        else:
            doc[key] = value
    cfg = ExperimentConfig(lm=LmConfig(**lm_doc), templates=templates, **doc)
    return cfg


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce or re-render one evaluation run."""

    config: dict
    rows: tuple[ScoreRow, ...]
    cache: CacheStats
    wall_clock_s: float
    parse_counts: dict[str, int]
    eval_ids: tuple[str, ...]


def _row_to_dict(row: ScoreRow) -> dict:
    out = {
        "id": row.id,
        "method": row.method,
        "model": row.model,
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
        return RougeScore(s["p"], s["r"], s["f1"])

    return ScoreRow(
        id=doc["id"],
        method=doc["method"],
        model=doc["model"],
        domain=doc["domain"],
        k=doc["k"],
        rouge1=score("rouge1"),
        rouge2=score("rouge2"),
        rougeL=score("rougeL"),
        parse_status=doc["parse_status"],
    )


def save_manifest(manifest: RunManifest, path) -> None:
    doc = {
        "config": manifest.config,
        "rows": [_row_to_dict(r) for r in manifest.rows],
        "cache": asdict(manifest.cache),
        "wall_clock_s": manifest.wall_clock_s,
        "parse_counts": manifest.parse_counts,
        "eval_ids": list(manifest.eval_ids),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def load_manifest(path) -> RunManifest:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return RunManifest(
        config=doc["config"],
        rows=tuple(_row_from_dict(r) for r in doc["rows"]),
        cache=CacheStats(**doc["cache"]),
        wall_clock_s=doc["wall_clock_s"],
        parse_counts=doc["parse_counts"],
        eval_ids=tuple(doc["eval_ids"]),
    )


def _registry(cfg: ExperimentConfig) -> DomainRegistry:
    return DomainRegistry(tuple(cfg.domains)) if cfg.domains else DomainRegistry()


def _make_client(cfg: ExperimentConfig, backend=None) -> CompletionClient:
    return CompletionClient(
        cfg.lm, cache_dir=cfg.cache_dir, replay_dir=cfg.replay_dir, backend=backend
    )


def run_rank(cfg: ExperimentConfig, out_path, *, backend=None) -> RankingTable:
    """Rank candidate questions on the ICL pool and write the ranking file."""
    corpus = load_corpus(cfg.corpus, _registry(cfg))
    split = split_corpus(corpus, cfg.pool_fraction, cfg.seed)
    by_id = corpus.by_id()
    pool = [by_id[i] for i in split.icl_pool]
    client = _make_client(cfg, backend)
    table = rank_questions(
        client,
        pool,
        subsample=cfg.rank_subsample,
        seed=cfg.seed,
        templates=cfg.templates,
        overlap_mode=cfg.overlap_mode,
    )
    save_ranking(table, out_path)
    return table


def _select_eval_ids(corpus: Corpus, split: CorpusSplit, cfg: ExperimentConfig) -> list[str]:
    by_id = corpus.by_id()
    by_domain: dict[str, list[str]] = {}
    for i in split.eval_set:
        by_domain.setdefault(by_id[i].domain, []).append(i)
    selected: list[str] = []
    for domain in sorted(by_domain):
        ids = sorted(by_domain[domain])
        if cfg.eval_subsample is not None and cfg.eval_subsample < len(ids):
            rng = random.Random(f"{cfg.seed}|eval|{domain}")
            ids = sorted(rng.sample(ids, cfg.eval_subsample))
        selected.extend(ids)
    return selected


_FAILED = ParsedOutput(answers=(), summary="", parse_status=PARSE_FAILED)


def run_eval(cfg: ExperimentConfig, out_dir, *, backend=None) -> RunManifest:
    """Evaluate the configured method over the eval set and k sweep.

    The run resolves inputs shared across rows once (ICL examples per
    (domain, task), question lists per k, example answers per (example,
    question)), then issues one completion per (instance, k) and scores
    instance by instance. A per-request LM error degrades to failed rows;
    configuration and I/O problems, an unreachable or rate-limiting
    backend and replay fixture gaps abort the run.
    """
    started = time.monotonic()
    corpus = load_corpus(cfg.corpus, _registry(cfg))
    split = split_corpus(corpus, cfg.pool_fraction, cfg.seed)
    by_id = corpus.by_id()
    eval_ids = _select_eval_ids(corpus, split, cfg)
    instances = [by_id[i] for i in eval_ids]

    table: RankingTable | None = None
    global_rank: GlobalRanking | None = None
    if cfg.method == "qa":
        if not cfg.ranking:
            raise RankingError("method qa requires a ranking file")
        table = load_ranking(cfg.ranking)
        ensure_model(table, cfg.lm.model, allow_mismatch=cfg.allow_model_mismatch)
        if cfg.scope == "global":
            global_rank = global_ranking(table, method=cfg.global_method)

    client = _make_client(cfg, backend)

    k_values = tuple(sorted(set(cfg.k_values))) if cfg.method == "qa" else (0,)

    # Stage 1: inputs shared across rows, resolved once per run.
    examples: dict[tuple[str, str], list] = {}
    if cfg.method != "vanilla":
        for group in {(inst.domain, inst.task) for inst in instances}:
            examples[group] = sample_icl_examples(
                split, corpus, *group, cfg.icl_examples, cfg.seed
            )

    def question_scope(inst) -> str | None:
        return None if global_rank is not None else inst.domain

    questions: dict[tuple[str | None, int], list] = {}
    if cfg.method == "qa":
        for scope in {question_scope(inst) for inst in instances}:
            for k in k_values:
                if k == 0:
                    questions[scope, k] = []
                elif scope is None:
                    questions[scope, k] = top_k(global_rank, k)
                else:
                    questions[scope, k] = top_k(table, k, domain=scope)

    # Stage 2: each example's answer to each question it is shown with,
    # requested once. Example answers are the model's own single-question
    # answers for the example article; the cache means ranking already
    # paid for them.
    answer_jobs: dict[tuple[str, str], tuple] = {}
    for inst in instances:
        for k in k_values:
            for example in examples.get((inst.domain, inst.task), ()):
                for q in questions.get((question_scope(inst), k), ()):
                    answer_jobs[example.id, q.key] = (example, q)

    def answer(job) -> str | None:
        example, question = job
        bundle = build_single_qa(example.article, question, cfg.templates)
        try:
            gen = client.generate(bundle.text, stop_sequences=bundle.stop_sequences)
        except FATAL_LM_ERRORS:
            raise
        except LmError:
            return None  # fails only the rows whose prompts need this answer
        return gen.completion.strip()

    def build_bundle(inst, k: int) -> PromptBundle | None:
        if cfg.method == "vanilla":
            return build_vanilla(inst.article, cfg.templates)
        group = examples[inst.domain, inst.task]
        if cfg.method == "icl":
            icl = [IclExample(e.article, e.reference) for e in group]
            return build_icl_prompt(inst.article, icl, cfg.templates)
        qs = questions[question_scope(inst), k]
        icl = []
        for e in group:
            example_answers = tuple(answers[e.id, q.key] for q in qs)
            if None in example_answers:
                return None
            icl.append(IclExample(e.article, e.reference, example_answers))
        return build_qa_prompt(inst.article, qs, icl, cfg.templates)

    # Stage 3: one completion per (instance, k), parsed.
    def summarize(job) -> ParsedOutput:
        inst, k = job
        bundle = build_bundle(inst, k)
        if bundle is None:
            return _FAILED
        try:
            gen = client.generate(
                bundle.text,
                max_tokens=compute_max_tokens(k),
                stop_sequences=bundle.stop_sequences,
            )
        except FATAL_LM_ERRORS:
            raise
        except LmError:
            return _FAILED
        return parse_output(gen.completion, bundle)

    jobs = [(inst, k) for inst in instances for k in k_values]
    with ThreadPoolExecutor(max_workers=cfg.lm.max_in_flight) as pool:
        answers = dict(zip(answer_jobs, pool.map(answer, answer_jobs.values())))
        outputs = list(pool.map(summarize, jobs))

    # Stage 4: score instance by instance, so only one reference's token
    # table is alive at a time.
    rows = []
    per_instance = len(k_values)
    for n, inst in enumerate(instances):
        reference = Reference.from_text(inst.reference)
        for k, parsed in zip(k_values, outputs[n * per_instance : (n + 1) * per_instance]):
            rouge1, rouge2, rougeL = rouge_scores(tokenize(parsed.summary), reference)
            rows.append(
                ScoreRow(
                    id=inst.id,
                    method=cfg.method,
                    model=cfg.lm.model,
                    domain=inst.domain,
                    k=k,
                    rouge1=rouge1,
                    rouge2=rouge2,
                    rougeL=rougeL,
                    parse_status=parsed.parse_status,
                )
            )
    rows.sort(key=lambda r: (r.id, r.k))

    parse_counts = {status: 0 for status in PARSE_STATUSES}
    for row in rows:
        parse_counts[row.parse_status] += 1

    manifest = RunManifest(
        config=cfg.snapshot(),
        rows=tuple(rows),
        cache=client.cache_stats(),
        wall_clock_s=time.monotonic() - started,
        parse_counts=parse_counts,
        eval_ids=tuple(eval_ids),
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


def _open_csv(path):
    return open(path, "w", encoding="utf-8", newline="")


def write_per_instance_csv(manifest: RunManifest, path) -> None:
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "domain", "method", "k", "parse_status", *METRIC_COLUMNS])
        for row in manifest.rows:
            writer.writerow(
                [row.id, row.domain, row.method, row.k, row.parse_status]
                + _metric_cells(row.rouge1, row.rouge2, row.rougeL)
            )


def write_aggregate_csv(manifest: RunManifest, group_by: tuple[str, ...], path) -> None:
    groups = aggregate(list(manifest.rows), group_by)
    fields = [name for name, _ in groups[0].group] if groups else list(group_by)
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*fields, "n", *METRIC_COLUMNS])
        for g in groups:
            writer.writerow(
                [value for _, value in g.group]
                + [g.n]
                + _metric_cells(g.rouge1, g.rouge2, g.rougeL)
            )


def _manifest_label(manifest: RunManifest) -> str:
    method = manifest.config.get("method", "?")
    if method == "qa":
        scope = manifest.config.get("scope", "domain_specific")
        return "qa-ds" if scope == "domain_specific" else "qa-global"
    return method


def _mean_rouge_l(rows) -> float:
    return sum(r.rougeL.f1 for r in rows) / len(rows)


def run_compare(manifest_paths, out_path) -> list[dict]:
    """Side-by-side mean ROUGE-L with per-domain breakdown and % deltas
    against the first manifest."""
    if len(manifest_paths) < 2:
        raise HarnessError("compare needs at least two manifests")
    manifests = [load_manifest(p) for p in manifest_paths]
    base_ids = set(manifests[0].eval_ids)
    for m in manifests[1:]:
        if set(m.eval_ids) != base_ids:
            raise MismatchedEvalSets("manifests evaluate different instance sets")

    raw = [_manifest_label(m) for m in manifests]
    labels = []
    for i, label in enumerate(raw):
        if raw.count(label) > 1:
            label = f"{label}#{raw[: i + 1].count(label)}"
        labels.append(label)

    domains = sorted({r.domain for r in manifests[0].rows})
    scopes = ["overall"] + domains

    def scope_rows(manifest, scope):
        rows = manifest.rows if scope == "overall" else [r for r in manifest.rows if r.domain == scope]
        return rows

    table = []
    for scope in scopes:
        entry: dict = {"scope": scope}
        means = []
        for label, m in zip(labels, manifests):
            rows = scope_rows(m, scope)
            mean = _mean_rouge_l(rows) if rows else 0.0
            means.append(mean)
            entry[label] = mean
        for label, mean in zip(labels[1:], means[1:]):
            base = means[0]
            entry[f"delta_{label}"] = (mean - base) / base * 100 if base > 0 else None
        table.append(entry)

    with _open_csv(out_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["scope", *labels] + [f"delta_{label}" for label in labels[1:]]
        writer.writerow(header)
        for entry in table:
            cells = [entry["scope"]] + [_fmt(entry[label]) for label in labels]
            for label in labels[1:]:
                delta = entry[f"delta_{label}"]
                cells.append("n/a" if delta is None else f"{delta:+.1f}%")
            writer.writerow(cells)
    return table


def run_report(manifest_path, out_dir) -> None:
    """Render a manifest as (a) an overall per-k table, (b) a plot-ready
    per-domain x k CSV, and (c) a parse-status summary."""
    manifest = load_manifest(manifest_path)
    os.makedirs(out_dir, exist_ok=True)
    rows = list(manifest.rows)
    method = manifest.config.get("method", "?")
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

    by_domain_k = aggregate(rows, ("domain", "k"))
    with _open_csv(os.path.join(out_dir, "by_domain_k.csv")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["domain", "k", "n", "r1_f", "r2_f", "rl_f"])
        for g in by_domain_k:
            cells = dict(g.group)
            writer.writerow(
                [cells["domain"], cells["k"], g.n, _fmt(g.rouge1.f1), _fmt(g.rouge2.f1), _fmt(g.rougeL.f1)]
            )

    with _open_csv(os.path.join(out_dir, "parse_summary.csv")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["parse_status", "count"])
        for status in PARSE_STATUSES:
            writer.writerow([status, manifest.parse_counts.get(status, 0)])


__all__ = [
    "ExperimentConfig",
    "HarnessError",
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
