"""Harness orchestration: config, eval runs, compare, report, CLI."""

from __future__ import annotations

import array
from collections import Counter
import csv
import dataclasses
from dataclasses import fields
import hashlib
import io
import json
import math
import os
from pathlib import Path
import random
import re
import shutil
import signal
import sqlite3
import struct
import sys
import tempfile
import threading
import time
import unicodedata
from unittest import mock

from hypothesis import example, given, settings, strategies as st
import pytest

from conftest import (
    CORPUS_PATH,
    MODEL,
    Reply,
    ScriptedBackend,
    StubBackend,
    UNDECODABLE_JSON,
    make_config,
    make_lm_config,
    scripted_server,
    table_of,
)
from qasum import harness, metrics
from qasum.cli import main
from qasum.corpus import load_corpus, sample_icl_examples, split_corpus
from qasum.harness import (
    ExperimentConfig,
    MismatchedEvalSets,
    RunManifest,
    config_from_dict,
    config_from_file,
    load_manifest,
    run_compare,
    run_eval,
    run_rank,
    save_manifest,
)
from qasum.lm import CacheStats, CompletionClient, LmConfig, LmError, RateLimited
from qasum.metrics import (AggregateRow, Reference, RougeScore, ScoreRow, ScoreTable, aggregate,
                           rouge_values, tokenize)
from qasum.prompting import (
    QA_INSTRUCTION,
    SINGLE_QA_INSTRUCTION,
    SUMMARY_MARKER,
    VANILLA_INSTRUCTION,
    parse_output,
    single_qa_frame,
)
from qasum.questions import (
    RankedQuestion,
    RankingError,
    RankingTable,
    builtin_bank,
    load_ranking,
    save_ranking,
    top_k,
)


def synthetic_ranking(path, model=MODEL, domains=("Dialogue", "News", "Reviews")):
    bank = builtin_bank()
    ranked = tuple(
        RankedQuestion(q.key, 1.0 - i * 0.05, 1) for i, q in enumerate(bank)
    )
    table = RankingTable(
        model=model, seed=0, subsample=None, created_at="t",
        domains={d: ranked for d in domains},
    )
    save_ranking(table, path)
    return table


# --- config ------------------------------------------------------------------


def test_config_from_file_with_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "lm": {"model": "m9", "backend": "replay", "max_in_flight": 3},
        "pool_fraction": 0.4,
        "k_values": [0, 1],
    }))
    cfg = config_from_file(path, corpus="c.jsonl", method="icl", seed=5, max_retries=0)
    assert cfg.lm.model == "m9"
    assert cfg.lm.max_retries == 0
    assert cfg.lm.max_in_flight == 3
    assert cfg.pool_fraction == 0.4
    assert cfg.k_values == (0, 1)
    assert cfg.method == "icl"
    assert cfg.seed == 5


def test_config_rejects_bad_k():
    with pytest.raises(ValueError):
        make_config(method="qa", k_values=(0, 11))


def test_config_rejects_bad_method():
    with pytest.raises(ValueError):
        make_config(method="chant")


def test_config_rejects_empty_k_values():
    with pytest.raises(ValueError, match="k_values"):
        make_config(method="qa", k_values=())


@pytest.mark.parametrize("key", ["eval_subsample", "rank_subsample"])
@pytest.mark.parametrize("count", [0, -1])
def test_config_rejects_a_subsample_below_one(key, count):
    with pytest.raises(ValueError, match=f"^{key}: must be >= 1"):
        make_config(**{key: count})
    assert getattr(make_config(**{key: None}), key) is None


def test_config_rejects_duplicate_domains():
    with pytest.raises(ValueError, match="^domains: names must be unique$"):
        config_from_dict({"corpus": "c.jsonl", "lm": {"model": "m"}, "domains": ["News", "News"]})
    with pytest.raises(ValueError, match="^domains: must list at least one domain$"):
        config_from_dict({"corpus": "c.jsonl", "lm": {"model": "m"}, "domains": []})
    assert config_from_dict({"corpus": "c.jsonl", "lm": {"model": "m"}}).domains is None


@pytest.mark.parametrize("name", ["Ne\rws", "\x00", "News\x7f", "é\n", "\t"])
def test_config_rejects_a_control_character_in_a_domain(tmp_path, capsys, name):
    with pytest.raises(ValueError) as exc:
        config_from_dict({"corpus": "c.jsonl", "lm": {"model": "m"}, "domains": ["News", name]})
    assert str(exc.value) == f"domains: {name!r} holds a control character"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lm": {"model": MODEL, "backend": "replay"}, "domains": [name]}))
    assert main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--out", str(tmp_path / "ranking.json")]) == 1
    assert "holds a control character" in capsys.readouterr().err


def test_config_rejects_every_unknown_key_at_both_levels():
    with pytest.raises(ValueError) as exc:
        config_from_dict({
            "corpus": "c.jsonl",
            "lm": {"model": "m", "temperature": 0.7, "stop_sequences": ["END"]},
            "bogus": 1,
            "templates": {"vanilla_instruction": "Condense the article below."},
        })
    assert str(exc.value) == (
        "unknown config key(s): bogus, templates, lm.stop_sequences, lm.temperature"
    )


BAD_CONFIGS = [
    ({"corpus": "x"}, "lm.model: missing"),
    ({"corpus": "x", "lm": {"model": "m"}, "k_values": "0,1"},
     "k_values: expected list of int, got str"),
    ({"corpus": "x", "lm": {"model": "m", "max_in_flight": "4"}},
     "lm.max_in_flight: expected int, got str"),
    ({"corpus": "x", "lm": [1]}, "lm: expected object, got list"),
    ({"corpus": "x", "lm": {"model": "m\ud800"}}, "lm.model: holds a lone surrogate"),
    ({"corpus": "x", "lm": {"model": "m"}, "domains": ["News", "N\udc80"]},
     "domains: holds a lone surrogate"),
]
BAD_CONFIG_IDS = ["no-model", "k-values-string", "max-in-flight-string", "lm-list",
                  "surrogate-model", "surrogate-domain"]


@pytest.mark.parametrize("doc,message", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
def test_config_rejects_missing_and_mistyped_values(doc, message):
    with pytest.raises(ValueError) as exc:
        config_from_dict(doc)
    assert str(exc.value) == message


def test_config_names_every_missing_and_mistyped_value():
    with pytest.raises(ValueError) as exc:
        config_from_dict({"lm": {"model": "m", "endpoint": 1, "timeout": True},
                          "seed": 1.5, "domains": ["News", 2], "cache_dir": None})
    assert str(exc.value) == (
        "corpus: missing; lm.endpoint: expected str, got int; "
        "lm.timeout: expected number, got bool; seed: expected int, got number; "
        "domains: expected list of str or null, got list"
    )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
VALID_DOC = {"corpus": "c.jsonl", "lm": {"model": "m"}}
CONFIG_KEYS = sorted({f.name for f in fields(ExperimentConfig)} - {"lm"}
                     | {f"lm.{f.name}" for f in fields(LmConfig)})


@given(st.sampled_from(CONFIG_KEYS), JSON_VALUES)
def test_config_any_json_value_under_a_known_key_is_accepted_or_a_value_error(key, value):
    doc = json.loads(json.dumps(VALID_DOC))
    *section, name = key.split(".")
    (doc[section[0]] if section else doc)[name] = value
    try:
        config_from_dict(doc)
    except ValueError:
        pass


@given(JSON_VALUES)
def test_config_any_json_document_is_accepted_or_a_value_error(doc):
    try:
        config_from_dict(doc)
    except ValueError:
        pass


def test_readme_config_block_lists_every_accepted_key():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config file", 1)[1]
    doc = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    cfg = config_from_dict(doc)
    assert cfg.lm.model == doc["lm"]["model"]
    assert set(doc) == {f.name for f in fields(ExperimentConfig)}
    assert set(doc["lm"]) == {f.name for f in fields(LmConfig)}


# --- eval behavior -----------------------------------------------------------


def test_eval_icl_forces_k_zero(tmp_path):
    backend = StubBackend(reply=" a summary")
    cfg = make_config(method="icl", k_values=(0, 1, 2), cache_dir=tmp_path / "c")
    manifest = run_eval(cfg, tmp_path, backend=backend)
    assert {r.k for r in manifest.rows} == {0}
    assert len(manifest.rows) == 3


def test_eval_vanilla_smoke(tmp_path):
    backend = StubBackend(reply=" a summary")
    cfg = make_config(method="vanilla", cache_dir=tmp_path / "c")
    manifest = run_eval(cfg, tmp_path, backend=backend)
    assert len(manifest.rows) == 3
    assert all(r.method == "vanilla" and r.k == 0 for r in manifest.rows)
    assert all(r.parse_status == "ok" for r in manifest.rows)
    # One request per row, each the bare vanilla prompt for its instance:
    # no example blocks and no example-answer requests.
    split = split_corpus(load_corpus(cfg.corpus), cfg.pool_fraction, cfg.seed)
    assert manifest.eval_ids == tuple(inst.id for inst in split.eval_set)
    expected = [f"{VANILLA_INSTRUCTION}\n{inst.article}\n{SUMMARY_MARKER}" for inst in split.eval_set]
    assert sorted(r.prompt for r in backend.requests) == sorted(expected)
    assert len(backend.requests) == len(manifest.rows)


def test_eval_qa_k0_prompts_equal_icl_prompts(tmp_path):
    ranking = tmp_path / "ranking.json"
    synthetic_ranking(ranking)

    icl_backend = StubBackend(reply=" s")
    run_eval(
        make_config(method="icl", cache_dir=tmp_path / "c1"),
        tmp_path / "icl",
        backend=icl_backend,
    )
    qa_backend = StubBackend(reply=" s")
    run_eval(
        make_config(method="qa", k_values=(0,), ranking=ranking,
                    cache_dir=tmp_path / "c2"),
        tmp_path / "qa",
        backend=qa_backend,
    )
    assert {p.prompt for p in icl_backend.requests} == {p.prompt for p in qa_backend.requests}


def test_eval_qa_requires_ranking(tmp_path):
    cfg = make_config(method="qa", cache_dir=tmp_path / "c")
    with pytest.raises(RankingError):
        run_eval(cfg, tmp_path)


def questions_asked(prompt: str) -> int:
    """The k of a request's frame: the ``Q<i>:`` lines after its last qa
    instruction, 0 for a summary or a single-question prompt."""
    if prompt.startswith(SINGLE_QA_INSTRUCTION):
        return 0
    target = prompt.rsplit(QA_INSTRUCTION, 1)[-1]
    return len(re.findall(r"^Q\d+: ", target, flags=re.M))


def test_eval_qa_sets_max_tokens_per_k(tmp_path):
    ranking = tmp_path / "ranking.json"
    synthetic_ranking(ranking)
    backend = StubBackend(reply=" A1: a.\nSummary: s.")
    cfg = make_config(method="qa", k_values=(0, 1, 2), ranking=ranking,
                      cache_dir=tmp_path / "c")
    run_eval(cfg, tmp_path, backend=backend)
    for request in backend.requests:
        assert request.max_tokens == 512 + 32 * questions_asked(request.prompt)
    answers = [r for r in backend.requests if r.prompt.startswith(SINGLE_QA_INSTRUCTION)]
    assert answers and {r.max_tokens for r in answers} == {512}
    summaries = [r for r in backend.requests if not r.prompt.startswith(SINGLE_QA_INSTRUCTION)]
    assert {r.max_tokens for r in summaries} == {512, 544, 576}


class FailingBackend:
    def complete(self, request):
        raise LmError("boom")


def test_eval_failures_become_failed_rows(tmp_path):
    cfg = make_config(method="icl", cache_dir=tmp_path / "c")
    manifest = run_eval(cfg, tmp_path, backend=FailingBackend())
    assert len(manifest.rows) == 3
    assert all(r.parse_status == "failed" for r in manifest.rows)
    assert all(r.rougeL.f1 == 0.0 for r in manifest.rows)
    assert manifest.parse_counts == {"ok": 0, "fallback": 0, "failed": 3}


def qa_reply(prompt: str) -> str:
    if prompt.startswith(SINGLE_QA_INSTRUCTION):
        return " an answer"
    return " A1: a. A2: b.\nSummary: the mayor announced a budget."


def expected_answer_prompts(cfg, k_values):
    """The single-question prompts a qa run needs: one per distinct
    (ICL example, question) over the eval set and k sweep."""
    corpus = load_corpus(cfg.corpus)
    split = split_corpus(corpus, cfg.pool_fraction, cfg.seed)
    table = load_ranking(cfg.ranking)
    prompts = set()
    for inst in split.eval_set:
        for example in sample_icl_examples(split, inst.domain, inst.task,
                                           cfg.icl_examples, cfg.seed):
            for k in k_values:
                for q in top_k(table.domains[inst.domain], k):
                    frame = single_qa_frame(q)
                    prompts.add(frame.head + example.article + frame.tail)
    return prompts


def test_eval_request_plan_issues_each_request_once(tmp_path):
    ranking = tmp_path / "ranking.json"
    synthetic_ranking(ranking)
    k_values = (0, 1, 2)
    csvs = {}
    for in_flight in (4, 1):
        cache = tmp_path / f"cache-{in_flight}"
        out = tmp_path / f"run-{in_flight}"
        cfg = make_config(method="qa", k_values=k_values, ranking=ranking, cache_dir=cache,
                          lm=make_lm_config(max_in_flight=in_flight))
        cold = StubBackend(reply=qa_reply)
        manifest = run_eval(cfg, out, backend=cold)

        prompts = Counter(r.prompt for r in cold.requests)
        assert set(prompts.values()) == {1}, "a request was issued more than once"
        answer_prompts = {p for p in prompts if p.startswith(SINGLE_QA_INSTRUCTION)}
        assert answer_prompts == expected_answer_prompts(cfg, k_values)
        main_tokens = Counter(r.max_tokens for r in cold.requests
                              if not r.prompt.startswith(SINGLE_QA_INSTRUCTION))
        n_eval = len(manifest.eval_ids)
        assert main_tokens == {512: n_eval, 544: n_eval, 576: n_eval}
        planned = len(cold.requests)
        assert planned == len(answer_prompts) + n_eval * len(k_values)

        warm = StubBackend(reply=qa_reply)
        rerun = run_eval(cfg, out, backend=warm)
        assert warm.requests == []
        assert (rerun.cache.hits, rerun.cache.misses) == (planned, 0)
        assert rerun.rows == manifest.rows
        csvs[in_flight] = {name: (out / name).read_bytes() for name in
                           ("per_instance.csv", "aggregate_method_k.csv", "aggregate_domain_k.csv")}
    assert csvs[4] == csvs[1]


def test_eval_reuses_the_answers_ranking_paid_for(tmp_path):
    cache = tmp_path / "cache"
    ranking = tmp_path / "ranking.json"
    cfg = make_config(method="qa", k_values=(0, 1, 2), ranking=ranking, cache_dir=cache)
    ranker = StubBackend(reply=qa_reply)
    run_rank(cfg, ranking, backend=ranker)
    assert any(r.prompt.startswith(SINGLE_QA_INSTRUCTION) for r in ranker.requests)

    evaluator = StubBackend(reply=qa_reply)
    manifest = run_eval(cfg, tmp_path / "run", backend=evaluator)
    assert evaluator.requests
    assert not [r for r in evaluator.requests if r.prompt.startswith(SINGLE_QA_INSTRUCTION)]
    assert manifest.parse_counts["failed"] == 0


class FailingQuestionBackend:
    """Fails every single-question request for one question, answers the rest."""

    def __init__(self, question_text):
        self.question_text = question_text

    def complete(self, request):
        if request.prompt.startswith(SINGLE_QA_INSTRUCTION):
            if f"Q: {self.question_text}\n" in request.prompt:
                raise LmError("boom")
        return qa_reply(request.prompt), "stop"


def test_eval_example_answer_failure_fails_only_rows_that_need_it(tmp_path):
    ranking = tmp_path / "ranking.json"
    synthetic_ranking(ranking)
    second = builtin_bank()[1]  # ranked second in every domain
    cfg = make_config(method="qa", k_values=(0, 1, 2), ranking=ranking,
                      cache_dir=tmp_path / "c")
    manifest = run_eval(cfg, tmp_path, backend=FailingQuestionBackend(second.text))
    status = {(r.id, r.k): r.parse_status for r in manifest.rows}
    assert {s for (_, k), s in status.items() if k < 2} == {"ok"}
    assert {s for (_, k), s in status.items() if k == 2} == {"failed"}


# Two domains whose orderings differ from each other and from the global
# one, which averages them: timeline (0.725), entities (0.65), insights (0.5).
ROUTING_PRECISIONS = {
    "News": {"topic": .9, "key_pts": .8, "entities": .7, "timeline": .6, "details": .5,
             "conclude": .4, "tone": .3, "challenges": .2, "insights": .1, "audience": .0},
    "Reviews": {"audience": .95, "insights": .9, "timeline": .85, "entities": .6,
                "challenges": .5, "tone": .4, "details": .3, "conclude": .2, "key_pts": .1,
                "topic": .0},
}
ROUTING_TOP_3 = {
    "News": ("topic", "key_pts", "entities"),
    "Reviews": ("audience", "insights", "timeline"),
    "global": ("timeline", "entities", "insights"),
}


def routing_setup(tmp_path, ranked_domains):
    """A News + Reviews corpus and a ranking of ``ranked_domains`` drawn
    from ``ROUTING_PRECISIONS``; returns (corpus path, ranking path)."""
    corpus = tmp_path / "two-domains.jsonl"
    corpus.write_text("".join(line for line in CORPUS_PATH.read_text(encoding="utf-8")
                              .splitlines(keepends=True)
                              if json.loads(line)["domain"] in ROUTING_PRECISIONS),
                      encoding="utf-8")
    domains = {
        d: tuple(RankedQuestion(key, p, 1) for key, p in
                 sorted(ROUTING_PRECISIONS[d].items(), key=lambda kv: -kv[1]))
        for d in ranked_domains
    }
    ranking = tmp_path / "ranking.json"
    save_ranking(RankingTable(model=MODEL, seed=0, subsample=None, created_at="t",
                              domains=domains), ranking)
    return corpus, ranking


def prompt_questions(requests, corpus) -> dict:
    """Per (domain, k): the question keys, in prompt order, that the
    summarization prompts for that domain's instances carry."""
    domain_of = {inst.article: inst.domain for inst in load_corpus(corpus).instances}
    key_of = {q.text: q.key for q in builtin_bank()}
    seen: dict = {}
    for request in requests:
        if request.prompt.startswith(SINGLE_QA_INSTRUCTION):
            continue
        target = request.prompt[request.prompt.rindex(QA_INSTRUCTION):]
        asked = [key_of[line.split(": ", 1)[1]] for line in request.prompt.splitlines()
                 if line.startswith("Q") and line.split(": ", 1)[0][1:].isdigit()]
        keys = tuple(asked[: len(asked) // 2])
        assert asked == list(keys) * 2, "the example block and the target ask different questions"
        seen.setdefault((domain_of[target.splitlines()[1]], len(keys)), set()).add(keys)
    return seen


@pytest.mark.parametrize("scope", ["domain_specific", "global"])
def test_eval_routes_each_domain_its_ordering(tmp_path, scope):
    corpus, ranking = routing_setup(tmp_path, ("News", "Reviews"))
    backend = StubBackend(reply=qa_reply)
    cfg = make_config(method="qa", corpus=str(corpus), k_values=(1, 2, 3), ranking=ranking,
                      scope=scope, cache_dir=tmp_path / "c")
    run_eval(cfg, tmp_path / "run", backend=backend)
    expected = {
        (domain, k): {ROUTING_TOP_3[domain if scope == "domain_specific" else "global"][:k]}
        for domain in ("News", "Reviews") for k in (1, 2, 3)
    }
    assert prompt_questions(backend.requests, corpus) == expected


def test_eval_ranking_without_an_eval_domain(tmp_path, capsys):
    corpus, ranking = routing_setup(tmp_path, ("News",))
    backend = StubBackend(reply=qa_reply)
    cfg = make_config(method="qa", corpus=str(corpus), k_values=(1, 2), ranking=ranking,
                      cache_dir=tmp_path / "c")
    with pytest.raises(RankingError, match="^domain 'Reviews' not present in ranking table$"):
        run_eval(cfg, tmp_path / "ds", backend=backend)
    assert backend.requests == []
    assert not (tmp_path / "ds").exists()

    # The same from the CLI: exit 7, before the empty replay store is asked
    # for anything (a request would exit 6).
    replay = tmp_path / "replay"
    replay.mkdir()
    config = write_cli_config(tmp_path, replay_dir=replay)
    code = main(["eval", "--corpus", str(corpus), "--config", str(config), "--method", "qa",
                 "--ranking", str(ranking), "--k", "1", "--out", str(tmp_path / "cli")])
    assert code == 7
    assert capsys.readouterr().err == (
        "ranking error: domain 'Reviews' not present in ranking table\n")

    # The global scope needs no per-domain entry: every domain gets the
    # one cross-domain ordering, here News's own.
    run_eval(dataclasses.replace(cfg, scope="global"), tmp_path / "global", backend=backend)
    assert prompt_questions(backend.requests, corpus) == {
        (domain, k): {ROUTING_TOP_3["News"][:k]} for domain in ("News", "Reviews") for k in (1, 2)
    }


# Reviews entries that a ranking file may not hold, and how load_ranking
# names each: a key outside the bank, and one key listed twice.
BAD_REVIEWS_KEYS = {
    "unknown-key": (("bogus", "topic", "key_pts"), "ranks 'bogus', not a bank question"),
    "repeated-key": (("topic", "insights", "topic"), "ranks 'topic' twice"),
}


def bad_keys_setup(tmp_path, case):
    """``routing_setup``'s files with Reviews ranking ``BAD_REVIEWS_KEYS[case]``;
    returns (corpus path, ranking path, the RankingError message)."""
    corpus, ranking = routing_setup(tmp_path, ("News", "Reviews"))
    keys, reason = BAD_REVIEWS_KEYS[case]
    doc = json.loads(ranking.read_text(encoding="utf-8"))
    doc["domains"]["Reviews"] = [{"key": key, "mean_precision": 0.5, "n": 1} for key in keys]
    ranking.write_text(json.dumps(doc), encoding="utf-8")
    return corpus, ranking, f"{ranking}: domain 'Reviews' {reason}"


@pytest.mark.parametrize("scope", ["domain_specific", "global"])
@pytest.mark.parametrize("case", BAD_REVIEWS_KEYS)
def test_eval_refuses_unknown_or_repeated_ranking_keys(tmp_path, case, scope):
    corpus, ranking, message = bad_keys_setup(tmp_path, case)
    backend = StubBackend(reply=qa_reply)
    cfg = make_config(method="qa", corpus=str(corpus), k_values=(1, 3), ranking=ranking,
                      scope=scope, cache_dir=tmp_path / "c")
    with pytest.raises(RankingError) as excinfo:
        run_eval(cfg, tmp_path / "run", backend=backend)
    assert str(excinfo.value) == message
    assert backend.requests == []
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", BAD_REVIEWS_KEYS)
def test_cli_eval_unknown_or_repeated_ranking_key_exit_code(tmp_path, capsys, case):
    corpus, ranking, message = bad_keys_setup(tmp_path, case)
    replay = tmp_path / "replay"  # empty: any request would exit 6
    replay.mkdir()
    config = write_cli_config(tmp_path, replay_dir=replay)
    out_dir = tmp_path / "run"
    code = main(["eval", "--corpus", str(corpus), "--config", str(config), "--method", "qa",
                 "--ranking", str(ranking), "--k", "1", "--out", str(out_dir)])
    assert code == 7
    assert capsys.readouterr().err == f"ranking error: {message}\n"
    assert not out_dir.exists()


def test_cli_eval_nan_mean_precision_exit_code(tmp_path, capsys):
    corpus, ranking = routing_setup(tmp_path, ("News", "Reviews"))
    doc = json.loads(ranking.read_text(encoding="utf-8"))
    key = doc["domains"]["News"][0]["key"]
    doc["domains"]["News"][0] = {"key": key, "mean_precision": float("nan"), "n": -3}
    ranking.write_text(json.dumps(doc), encoding="utf-8")  # writes the bare NaN token
    replay = tmp_path / "replay"  # empty: any request would exit 6
    replay.mkdir()
    config = write_cli_config(tmp_path, replay_dir=replay)
    out_dir = tmp_path / "run"
    code = main(["eval", "--corpus", str(corpus), "--config", str(config), "--method", "qa",
                 "--ranking", str(ranking), "--k", "1", "--out", str(out_dir)])
    assert code == 7
    assert capsys.readouterr().err == (f"ranking error: {ranking}: domain 'News' gives {key!r}"
                                       " mean_precision nan, not a number in [0, 1]\n")
    assert not out_dir.exists()


class RateLimitedAnswers:
    def complete(self, request):
        if request.prompt.startswith(SINGLE_QA_INSTRUCTION):
            raise RateLimited("slow down")
        return qa_reply(request.prompt), "stop"


def test_eval_rate_limited_example_answers_abort_the_run(tmp_path):
    ranking = tmp_path / "ranking.json"
    synthetic_ranking(ranking)
    out = tmp_path / "run"
    cfg = make_config(method="qa", k_values=(1,), ranking=ranking,
                      cache_dir=tmp_path / "c")
    with pytest.raises(RateLimited):
        run_eval(cfg, out, backend=RateLimitedAnswers())
    assert not out.exists()


def test_eval_subsample_is_stable(tmp_path):
    cfg1 = make_config(method="icl", eval_subsample=1, cache_dir=tmp_path / "c1")
    cfg2 = make_config(method="icl", eval_subsample=1, cache_dir=tmp_path / "c2")
    m1 = run_eval(cfg1, tmp_path / "a", backend=StubBackend(reply=" s"))
    m2 = run_eval(cfg2, tmp_path / "b", backend=StubBackend(reply=" s"))
    assert m1.eval_ids == m2.eval_ids
    assert len(m1.eval_ids) == 3  # one per domain


# --- scoring on every core ---------------------------------------------------


OUTPUT_FILES = ("per_instance.csv", "aggregate_method_k.csv", "aggregate_domain_k.csv")
FORK = getattr(os, "fork", None)


def seeded_corpus(path, size, seed=0, domains=("News",)):
    """A corpus of ``size`` instances drawn from a small vocabulary, so
    summaries and references share some words and scores differ. The
    instances take ``domains`` in turn, so their ids interleave domains."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(40)]
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(size):
            fh.write(json.dumps({
                "id": f"doc-{i:02d}", "domain": domains[i % len(domains)], "task": "xsum",
                "article": " ".join(rng.choices(vocab, k=60)),
                "reference": " ".join(rng.choices(vocab, k=rng.randint(1, 25))),
            }) + "\n")
    return path


def seeded_reply(prompt: str) -> str:
    """Answers and a summary of words sampled from the prompt, seeded by it."""
    rng = random.Random(prompt)
    words = prompt.split()
    return f" A1: {rng.choice(words)}.\nSummary: {' '.join(rng.sample(words, rng.randint(0, 30)))}"


def counted_eval(cfg, out_dir, backend, cpus):
    """``run_eval`` as if ``cpus`` CPUs were usable: the bytes of its CSVs
    and manifest rows, how many rows it scored, references it tokenized
    and helpers it forked, in this process, and its manifest."""
    calls: Counter = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    with mock.patch.object(harness, "_usable_cpus", lambda: cpus), \
            mock.patch.object(os, "fork", counting("forks", FORK)), \
            mock.patch.object(harness, "rouge_values", counting("scored", rouge_values)), \
            mock.patch.object(Reference, "from_text",
                              staticmethod(counting("references", Reference.from_text))):
        manifest = run_eval(cfg, out_dir, backend=backend)
    files = {name: (out_dir / name).read_bytes() for name in OUTPUT_FILES}
    # The manifest's first line holds the run's fields: its config, cache
    # counts and wall time.
    files["manifest rows"] = (out_dir / "manifest.json").read_bytes().split(b"\n", 1)[1]
    return files, calls, manifest


def outputs_with_cpus(cfg, out_dir, backend, cpus):
    """``run_eval`` as if ``cpus`` CPUs were usable: the rows, the bytes of
    its CSVs and manifest rows, and how many helpers it forked."""
    files, calls, manifest = counted_eval(cfg, out_dir, backend, cpus)
    return manifest.rows, files, calls["forks"]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def seeded_case(tmp_path, case):
    """A config and backend for one corpus shape: the acceptance fixture at
    qa k = 0..5, or a seeded corpus whose eval set (7 instances, or 1)
    does not split evenly into shares. In "two-domains" the seeded ids
    alternate between News and Dialogue, so id order is not domain order."""
    ranking = tmp_path / "ranking.json"
    if case == "acceptance-fixture":
        synthetic_ranking(ranking)
        cfg = make_config(method="qa", k_values=range(6), ranking=ranking)
        return cfg, ScriptedBackend(load_corpus(CORPUS_PATH)), 3
    domains = ("News", "Dialogue") if case == "two-domains" else ("News",)
    synthetic_ranking(ranking, domains=domains)
    # 8 to the pool and 7 to eval; in two domains, 4 + 4 and 4 + 3.
    corpus = seeded_corpus(tmp_path / "corpus.jsonl", 15, domains=domains)
    subsample = 1 if case == "one-instance" else None
    cfg = make_config(method="qa", k_values=range(6), ranking=ranking, corpus=str(corpus),
                      eval_subsample=subsample)
    return cfg, StubBackend(seeded_reply), subsample or 7


@pytest.mark.parametrize("case", ["acceptance-fixture", "seven-instances", "one-instance",
                                  "two-domains"])
def test_eval_outputs_are_identical_for_any_helper_count(tmp_path, case):
    cfg, backend, instances = seeded_case(tmp_path, case)
    rows, files, forks = outputs_with_cpus(cfg, tmp_path / "cpus-1", backend, 1)
    assert forks == 0
    assert len(rows) == 6 * instances
    for helpers in (1, 3):
        out = tmp_path / f"helpers-{helpers}"
        got = outputs_with_cpus(cfg, out, backend, helpers + 1)
        assert got == (rows, files, min(helpers, instances - 1))
        assert_no_child_left()


def test_eval_rows_are_in_id_order_and_each_holds_its_own_scores(tmp_path, monkeypatch):
    cfg, backend, instances = seeded_case(tmp_path, "two-domains")
    completions = {}
    generate = CompletionClient.generate

    def recording_generate(self, frame, article):
        reply = generate(self, frame, article)
        completions[article, frame.k] = reply[0]
        return reply

    monkeypatch.setattr(CompletionClient, "generate", recording_generate)
    rows, _, forks = outputs_with_cpus(cfg, tmp_path / "run", backend, 3)
    assert forks == 2 and len(rows) == 6 * instances
    assert list(rows.domain) != sorted(rows.domain)  # the ids interleave the domains
    assert list(zip(rows.id, rows.k)) == sorted(zip(rows.id, rows.k))
    by_id = {inst.id: inst for inst in load_corpus(cfg.corpus).instances}
    for n, (id_, k) in enumerate(zip(rows.id, rows.k)):
        inst = by_id[id_]
        summary = parse_output(completions[inst.article, k], k).summary
        expected = rouge_values(tokenize(summary), Reference.from_text(inst.reference))
        assert tuple(column[n] for column in rows.scores) == expected, (id_, k)


def rows_with_cpus(monkeypatch, cfg, out_dir, backend, cpus):
    """The rows of ``run_eval`` as if ``cpus`` CPUs were usable."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    return run_eval(cfg, out_dir, backend=backend).rows


def patch_helper_scoring(monkeypatch, in_helper, in_caller=None):
    """Run ``in_helper(scores)`` on what ``_score`` returns in a forked
    helper, and ``in_caller()`` before the caller's own ``_score``."""
    caller = os.getpid()
    score = harness._score

    def patched(*args):
        if os.getpid() != caller:
            return in_helper(score(*args))
        if in_caller is not None:
            in_caller()
        return score(*args)

    monkeypatch.setattr(harness, "_score", patched)


def helper_exits(scores):
    os._exit(3)


def helper_is_killed(scores):
    os.kill(os.getpid(), signal.SIGKILL)


def helper_drops_a_row(scores):
    return scores[:-9]  # nine doubles to a row


class CutArray(array.array):
    """An ``array`` whose bytes lose their last five: a payload cut mid-double."""

    def tobytes(self):
        return super().tobytes()[:-5]


HELPER_FAULTS = {
    "exits-before-writing": (helper_exits, False),
    "killed-by-a-signal": (helper_is_killed, False),
    "writes-a-row-too-few": (helper_drops_a_row, False),
    "writes-a-cut-payload": (None, True),
}


@pytest.mark.parametrize("fault", HELPER_FAULTS, ids=HELPER_FAULTS)
def test_a_failed_helper_share_is_scored_by_the_caller(tmp_path, monkeypatch, fault):
    cfg, backend, _ = seeded_case(tmp_path, "seven-instances")
    expected = rows_with_cpus(monkeypatch, cfg, tmp_path / "serial", backend, 1)
    in_helper, cut_payload = HELPER_FAULTS[fault]
    if in_helper is not None:
        patch_helper_scoring(monkeypatch, in_helper)
    if cut_payload:
        monkeypatch.setattr(harness, "array", CutArray)
    assert rows_with_cpus(monkeypatch, cfg, tmp_path / "faulty", backend, 4) == expected
    assert_no_child_left()


@pytest.mark.skipif(sys.platform != "linux", reason="lists descriptors in /proc/self/fd")
@pytest.mark.parametrize("cpus", [1, 4])
def test_eval_leaves_no_descriptor_open(tmp_path, monkeypatch, cpus):
    cfg, backend, _ = seeded_case(tmp_path, "seven-instances")
    before = sorted(os.listdir("/proc/self/fd"))
    rows_with_cpus(monkeypatch, cfg, tmp_path / "out", backend, cpus)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert_no_child_left()


def test_an_error_in_the_callers_share_propagates_and_every_helper_is_reaped(
        tmp_path, monkeypatch):
    cfg, backend, _ = seeded_case(tmp_path, "seven-instances")

    def slow_helper(scores):
        time.sleep(60)
        return scores

    def caller_fails():
        raise RuntimeError("scoring failed")

    patch_helper_scoring(monkeypatch, slow_helper, caller_fails)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="scoring failed"):
        rows_with_cpus(monkeypatch, cfg, tmp_path / "out", backend, 4)
    assert time.monotonic() - started < 30  # the helpers were killed, not waited for
    assert_no_child_left()
    assert not (tmp_path / "out").exists()


def test_eval_never_forks_while_another_thread_is_alive(tmp_path, monkeypatch):
    cfg, backend, _ = seeded_case(tmp_path, "seven-instances")
    expected = rows_with_cpus(monkeypatch, cfg, tmp_path / "serial", backend, 1)

    def no_fork():
        raise AssertionError("forked while another thread was alive")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert rows_with_cpus(monkeypatch, cfg, tmp_path / "threaded", backend, 4) == expected
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# --- the score memo ----------------------------------------------------------


MEMO_WORDS = ["alpha", "beta", "gamma", "x", "42", "café", "Straße", "naïve", "数据", "İstanbul"]
# Empty, one-token, ASCII and non-ASCII texts, and any text UTF-8 can hold.
MEMO_TEXTS = st.one_of(
    st.just(""),
    st.sampled_from(MEMO_WORDS),
    st.lists(st.sampled_from(MEMO_WORDS), min_size=2, max_size=20).map(" ".join),
    st.text(st.characters(codec="utf-8"), max_size=30),
)
# The same, less the empty text: a corpus refuses a reference with no tokens.
MEMO_REFERENCES = st.one_of(
    st.sampled_from(MEMO_WORDS),
    st.lists(st.sampled_from(MEMO_WORDS), min_size=2, max_size=20).map(" ".join),
    st.builds("{} {}".format, st.text(st.characters(codec="utf-8"), max_size=30),
              st.sampled_from(MEMO_WORDS)),
)
MEMO_INSTANCES = 10  # 5 to the ICL pool, 5 to eval


class DrawnBackend:
    """Completes the summary prompt of the article marked ``docN`` at k
    with ``summaries[N, k]``, after k answer lines, and every answer prompt
    with one word. The article to summarize is the prompt's last one."""

    def __init__(self, summaries):
        self.summaries = summaries

    def complete(self, request):
        if request.prompt.startswith(SINGLE_QA_INSTRUCTION):
            return "alpha", "stop"
        k = (request.max_tokens - 512) // 32
        n = int(re.findall(r"\bdoc(\d+)\b", request.prompt)[-1])
        answers = "".join(f" A{i}: beta.\n" for i in range(1, k + 1))
        return answers + ("Summary: " if k else "") + self.summaries[n, k], "stop"


def drawn_case(root, references, summaries, k_values):
    """A qa config over one News instance per reference, instance N's
    article marked ``docN``, and the ``DrawnBackend`` of ``summaries``."""
    ranking = root / "ranking.json"
    synthetic_ranking(ranking, domains=("News",))
    corpus = root / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for n, reference in enumerate(references):
            fh.write(json.dumps({"id": f"doc-{n:02d}", "domain": "News", "task": "xsum",
                                 "article": f"doc{n} " + " ".join(MEMO_WORDS[: n % 5 + 3]),
                                 "reference": reference}) + "\n")
    cfg = make_config(method="qa", k_values=k_values, ranking=ranking, corpus=str(corpus))
    return cfg, DrawnBackend(summaries)


@settings(deadline=None, max_examples=25)
@given(st.lists(MEMO_REFERENCES, min_size=MEMO_INSTANCES, max_size=MEMO_INSTANCES),
       st.lists(MEMO_TEXTS, min_size=3 * MEMO_INSTANCES, max_size=3 * MEMO_INSTANCES))
def test_a_warm_eval_reads_every_score_from_the_memo(references, drawn):
    summaries = {(n, k): drawn[3 * n + k] for n in range(MEMO_INSTANCES) for k in range(3)}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg, backend = drawn_case(root, references, summaries, (0, 1, 2))
        stored = dataclasses.replace(cfg, cache_dir=str(root / "cache"))
        cold, _, _ = counted_eval(stored, root / "cold", backend, 3)
        warm, calls, manifest = counted_eval(stored, root / "warm", backend, 3)
        bare, _, _ = counted_eval(cfg, root / "bare", backend, 3)
    assert warm == cold == bare
    assert manifest.cache.misses == 0
    assert calls == Counter()  # no row scored, no helper forked


def store_conn(root):
    return sqlite3.connect(os.path.join(root, "cache.sqlite"), isolation_level=None)


def memo_rows(root) -> dict:
    """Each memo key's value, as its SQLite type and its bytes."""
    conn = store_conn(root)
    conn.text_factory = bytes
    try:
        return {key: (kind, value) for key, kind, value
                in conn.execute("SELECT key, typeof(value), value FROM scores")}
    finally:
        conn.close()


def set_component(value):
    """A fault that sets each memo value's fifth double, ROUGE-2 recall, to ``value``."""
    def fault(conn):
        for key, blob in conn.execute("SELECT key, value FROM scores").fetchall():
            values = list(struct.unpack("<9d", blob))
            values[4] = value
            conn.execute("UPDATE scores SET value = ? WHERE key = ?",
                         (struct.pack("<9d", *values), key))
    return fault


MEMO_FAULTS = {
    "short-blob": lambda conn: conn.execute("UPDATE scores SET value = substr(value, 1, 71)"),
    "text": lambda conn: conn.execute("UPDATE scores SET value = CAST(value AS TEXT)"),
    "null": lambda conn: conn.execute("UPDATE scores SET value = NULL"),
    "nan": set_component(math.nan),
    "above-one": set_component(1.5),
}


@pytest.mark.parametrize("fault", MEMO_FAULTS, ids=MEMO_FAULTS)
def test_a_bad_memo_value_is_a_miss_rescored_and_rewritten(tmp_path, fault):
    cfg, backend, instances = seeded_case(tmp_path, "seven-instances")
    cfg = dataclasses.replace(cfg, cache_dir=str(tmp_path / "cache"))
    cold, calls, _ = counted_eval(cfg, tmp_path / "cold", backend, 1)
    assert calls["scored"] == 6 * instances
    memo = memo_rows(tmp_path / "cache")
    conn = store_conn(tmp_path / "cache")
    try:
        MEMO_FAULTS[fault](conn)
    finally:
        conn.close()
    assert memo_rows(tmp_path / "cache") != memo
    files, calls, _ = counted_eval(cfg, tmp_path / "faulty", backend, 1)
    assert files == cold and calls["scored"] == 6 * instances
    assert memo_rows(tmp_path / "cache") == memo
    files, calls, _ = counted_eval(cfg, tmp_path / "again", backend, 1)
    assert files == cold and calls["scored"] == 0


def test_a_store_written_before_the_memo_gains_it_and_keeps_its_completions(tmp_path):
    cfg, backend, instances = seeded_case(tmp_path, "seven-instances")
    cfg = dataclasses.replace(cfg, cache_dir=str(tmp_path / "cache"))
    cold, _, _ = counted_eval(cfg, tmp_path / "cold", backend, 1)
    conn = store_conn(tmp_path / "cache")
    try:
        conn.execute("DROP TABLE scores")  # the layout of a store written before the memo
    finally:
        conn.close()
    files, calls, manifest = counted_eval(cfg, tmp_path / "warm", backend, 1)
    assert files == cold and calls["scored"] == 6 * instances
    assert manifest.cache.misses == 0 and manifest.cache.hits > 0
    files, calls, _ = counted_eval(cfg, tmp_path / "again", backend, 1)
    assert files == cold and calls["scored"] == 0


def test_a_replay_only_run_writes_nothing(tmp_path, replay_dir):
    recorded = {path.name: path.read_bytes() for path in replay_dir.iterdir()}
    cfg = make_config(method="icl", replay_dir=replay_dir)
    out = tmp_path / "out"
    run_eval(cfg, out)
    _, calls, manifest = counted_eval(cfg, tmp_path / "again", None, 1)
    # The recording holds a memo too, and replay reads none of it.
    assert calls["scored"] == len(manifest.rows)
    assert {path.name: path.read_bytes() for path in replay_dir.iterdir()} == recorded
    assert sorted(os.listdir(tmp_path)) == ["again", "out"]
    assert sorted(os.listdir(out)) == sorted([*OUTPUT_FILES, "manifest.json"])


@pytest.mark.parametrize("change", ["scorer-version", "unicode-version"])
def test_another_scorer_or_unicode_version_misses_every_row(tmp_path, change):
    cfg, backend, instances = seeded_case(tmp_path, "seven-instances")
    cfg = dataclasses.replace(cfg, cache_dir=str(tmp_path / "cache"))
    cold, _, _ = counted_eval(cfg, tmp_path / "cold", backend, 1)
    other = (mock.patch.object(metrics, "SCORER_VERSION", metrics.SCORER_VERSION + 1)
             if change == "scorer-version"
             else mock.patch.object(unicodedata, "unidata_version", "1.1.0"))
    with other:
        files, calls, _ = counted_eval(cfg, tmp_path / "other", backend, 1)
    assert files == cold and calls["scored"] == 6 * instances
    files, calls, _ = counted_eval(cfg, tmp_path / "again", backend, 1)
    assert files == cold and calls["scored"] == 0


def test_a_rerun_with_one_more_k_scores_only_the_new_rows(tmp_path):
    rng = random.Random(0)
    references = [" ".join(rng.choices(MEMO_WORDS, k=rng.randint(1, 12)))
                  for _ in range(MEMO_INSTANCES)]
    # A distinct summary for each (instance, k).
    summaries = {(n, k): f"{k} " + " ".join(rng.choices(MEMO_WORDS, k=rng.randint(0, 12)))
                 for n in range(MEMO_INSTANCES) for k in range(4)}
    cfg, backend = drawn_case(tmp_path, references, summaries, (0, 1, 2, 3))
    stored = dataclasses.replace(cfg, cache_dir=str(tmp_path / "cache"))
    counted_eval(dataclasses.replace(stored, k_values=(0, 1, 2)), tmp_path / "three", backend, 1)
    files, calls, _ = counted_eval(stored, tmp_path / "four", backend, 1)
    instances = MEMO_INSTANCES // 2
    # One new row per instance, each scored against its reference tokenized once.
    assert calls == Counter(scored=instances, references=instances)
    assert files == counted_eval(cfg, tmp_path / "bare", backend, 1)[0]


# --- rows held as columns ----------------------------------------------------


def count_constructions(monkeypatch) -> Counter:
    """Count each ``ScoreRow`` and ``RougeScore`` this process builds from now on."""
    built: Counter = Counter()
    for cls in (ScoreRow, RougeScore):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_warm_eval_and_load_build_no_score_objects(tmp_path, monkeypatch):
    cfg, backend, _ = seeded_case(tmp_path, "seven-instances")
    cfg = dataclasses.replace(cfg, cache_dir=str(tmp_path / "cache"))
    built = count_constructions(monkeypatch)
    cold, _, cold_forks = outputs_with_cpus(cfg, tmp_path / "cold", backend, 3)
    warm, files, forks = outputs_with_cpus(cfg, tmp_path / "warm", backend, 3)
    loaded = load_manifest(tmp_path / "warm" / "manifest.json")
    # Only each aggregate CSV line's three means are RougeScores, in both
    # runs: scoring and the helpers' hand-back build none either.
    groups = sum(files[name].count(b"\n") - 1
                 for name in ("aggregate_method_k.csv", "aggregate_domain_k.csv"))
    assert built == Counter(RougeScore=2 * 3 * groups)
    # The cold run scores on three cores; the warm one reads the score memo.
    assert cold_forks == 2 and forks == 0 and len(warm) > groups
    assert loaded.cache.misses == 0 and loaded.cache.hits > 0
    assert warm == cold and loaded.rows == warm


# What this run gave before its rows were held as columns: the SHA-256 of
# ``repr`` of its tuple of ScoreRows, and of manifest.json after the first
# line, which holds the run's fields and its wall-clock time.
SEVEN_INSTANCE_ROWS_SHA256 = "4771ff48c7ee5fd4ff80da3c971cb7f453f8c271ea088eb91f288b2b0126de54"
SEVEN_INSTANCE_MANIFEST_ROWS_SHA256 = "cf228af3fb36daf14d745e96d95eaa4cbf2d9e33e32afbf624d14411ab28e2bb"


def test_eval_rows_and_manifest_bytes_are_those_of_row_objects(tmp_path):
    cfg, backend, _ = seeded_case(tmp_path, "seven-instances")
    rows, files, forks = outputs_with_cpus(cfg, tmp_path / "run", backend, 3)
    assert forks == 2
    digest = hashlib.sha256(repr(tuple(rows)).encode("utf-8")).hexdigest()
    assert digest == SEVEN_INSTANCE_ROWS_SHA256
    assert hashlib.sha256(files["manifest rows"]).hexdigest() == SEVEN_INSTANCE_MANIFEST_ROWS_SHA256
    assert tuple(load_manifest(tmp_path / "run" / "manifest.json").rows) == tuple(rows)


def test_manifest_round_trip(tmp_path):
    # The model name lands in the config; the writer keeps non-ASCII text
    # as is, so it must still escape quotes, backslashes and newlines.
    model = 'modèle "α" \\ v2\nß'
    cfg = make_config(method="icl", cache_dir=tmp_path / "c", lm=make_lm_config(model=model))
    manifest = run_eval(cfg, tmp_path, backend=StubBackend(reply=" the summary"))
    path = tmp_path / "manifest.json"
    loaded = load_manifest(path)
    assert loaded == manifest  # exact floats included
    assert loaded.config["lm"]["model"] == model
    assert any(0 < row.rouge1.f1 < 1 for row in loaded.rows)

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    # Eval ids, parse counts and the model are not stored again beside the rows.
    assert set(doc) == {"config", "cache", "wall_clock_s", "rows"}
    assert all("model" not in row for row in doc["rows"])
    text = path.read_text(encoding="utf-8")
    assert "modèle" in text
    # One line of run fields, one line per row, one closing line.
    lines = text.splitlines()
    assert len(lines) == len(manifest.rows) + 2
    assert lines[0].endswith('"rows":[') and lines[-1] == "]}"
    assert [json.loads(line.removesuffix(",")) for line in lines[1:-1]] == doc["rows"]


def test_aggregates_recompute_from_rows(tmp_path):
    cfg = make_config(method="icl", cache_dir=tmp_path / "c")
    manifest = run_eval(cfg, tmp_path, backend=StubBackend(reply=" s"))

    (agg,) = aggregate(manifest.rows, ("method", "k"))
    manual = 0.0
    for row in manifest.rows:
        manual += row.rougeL.f1
    assert agg.rougeL.f1 == manual / len(manifest.rows)


# Labels as run_eval and load_manifest pass them through: any text with no
# lone surrogate, with quotes, backslashes, control characters, U+2028 and
# non-ASCII text drawn often.
LABELS = st.text(st.characters(codec="utf-8")
                 | st.sampled_from('",\\\x00\x1f\x7f\n\r\t\u2028\u2029é東'), max_size=6)
SCORE_VALUES = st.floats(0, 1) | st.sampled_from([0, 1])
SCORES = st.builds(RougeScore, SCORE_VALUES, SCORE_VALUES, SCORE_VALUES)


@st.composite
def score_rows(draw, labels=LABELS, statuses=LABELS, scores=SCORES) -> ScoreRow:
    return ScoreRow(id=draw(labels), method=draw(labels), domain=draw(labels),
                    k=draw(st.integers(0, 10)), rouge1=draw(scores), rouge2=draw(scores),
                    rougeL=draw(scores), parse_status=draw(statuses))


def row_as_dict(row: ScoreRow) -> dict:
    """A manifest row in the key layout ``save_manifest`` has always written."""
    out = {"id": row.id, "method": row.method, "domain": row.domain, "k": row.k,
           "parse_status": row.parse_status}
    for name in ("rouge1", "rouge2", "rougeL"):
        score = getattr(row, name)
        out[name] = {"p": score.precision, "r": score.recall, "f1": score.f1}
    return out


def with_float_scores(row: ScoreRow) -> ScoreRow:
    """``row`` with each score a float: an equal row, as ``0 == 0.0``."""
    def floats(score):
        return RougeScore(*map(float, (score.precision, score.recall, score.f1)))

    return dataclasses.replace(row, rouge1=floats(row.rouge1), rouge2=floats(row.rouge2),
                               rougeL=floats(row.rougeL))


def manifest_of(rows) -> RunManifest:
    return RunManifest(config={"method": "qa", "lm": {"model": 'm "α"'}}, rows=table_of(rows),
                       cache=CacheStats(1, 2, 3), wall_clock_s=0.5)


def manifest_refusal(row: ScoreRow) -> str | None:
    """How ``load_manifest`` starts to say why it refuses ``row``: an unknown
    parse status, or a C0 control or DEL in id, method or domain, with the
    row's id. None if it takes the row."""
    if row.parse_status not in harness.PARSE_STATUSES:
        return f"row {row.id!r}: unknown parse_status"
    for key in ("id", "method", "domain"):
        if any(c < " " or c == "\x7f" for c in getattr(row, key)):
            return f"row {row.id!r}: {key} holds control character"
    return None


def plain_row(id_: str, parse_status: str = "ok", scores=RougeScore(0.0, 1.0, 0.5)) -> ScoreRow:
    return ScoreRow(id=id_, method="qa", domain="News", k=0, rouge1=scores, rouge2=scores,
                    rougeL=scores, parse_status=parse_status)


@settings(deadline=None, max_examples=200)
@given(st.lists(score_rows(statuses=st.sampled_from(harness.PARSE_STATUSES) | LABELS),
                min_size=1, max_size=5, unique_by=lambda row: (row.id, row.k)))
@example([ScoreRow(id='a"\\\n\u2028', method="qa", domain="\x00é", k=10,
                   rouge1=RougeScore(0, 1, 0.1), rouge2=RougeScore(5e-324, 1 / 3, 1.0),
                   rougeL=RougeScore(0.0, 0.995, 0.125), parse_status="ok")])
@example([ScoreRow(id='a"\\\u2028', method="q\u2029a", domain="é", k=10,
                   rouge1=RougeScore(0, 1, 0.1), rouge2=RougeScore(5e-324, 1 / 3, 1.0),
                   rougeL=RougeScore(0.0, 0.995, 0.125), parse_status="ok")])
# A control character in the last row only, and a control character in a
# row that passes the loader's type check before a row that fails it: the
# refusal names the first faulty row.
@example([plain_row("a"), plain_row("b"), plain_row("c\x1b")])
@example([plain_row("a\r"), plain_row("b", parse_status="bogus")])
def test_manifest_rows_are_json_dumps_of_the_row_layout(rows):
    manifest = manifest_of(rows)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "manifest.json"
        save_manifest(manifest, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        # A table holds its scores as floats, so an int score is written as one.
        expected = [json.dumps(row_as_dict(with_float_scores(row)), ensure_ascii=False,
                               separators=(",", ":")) for row in rows]
        assert lines[1:-2] == [line + "," for line in expected[:-1]] + expected[-1:]
        assert lines[-2:] == ["]}", ""]
        refusal = next(filter(None, map(manifest_refusal, rows)), None)
        if refusal is None:
            assert load_manifest(path) == manifest
        else:
            with pytest.raises(ValueError, match=re.escape(refusal)):
                load_manifest(path)


def csv_text(header, rows) -> str:
    """What ``csv.writer`` writes for ``header`` and ``rows``, with ``\\n`` line ends."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


@settings(deadline=None, max_examples=100)
@given(st.lists(score_rows(), min_size=1, max_size=5))
@example([ScoreRow(id="a,b", method='q"a', domain="x\ny", k=3,
                   rouge1=RougeScore(0.125, 0.995, 1 / 3), rouge2=RougeScore(5e-324, 1.0, 0.00125),
                   rougeL=RougeScore(0, 1, 0.5), parse_status="o\rk")])
def test_per_instance_cells_are_the_scores_to_two_decimals(rows):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "per_instance.csv"
        harness.write_per_instance_csv(manifest_of(rows), path)
        text = path.read_bytes().decode("utf-8")
    cells = [[row.id, row.domain, row.method, row.k, row.parse_status]
             + [f"{x * 100:.2f}" for score in (row.rouge1, row.rouge2, row.rougeL)
                for x in (score.precision, score.recall, score.f1)] for row in rows]
    header = ["id", "domain", "method", "k", "parse_status", *harness.METRIC_COLUMNS]
    assert text == csv_text(header, cells)


# 0.995 * 100 and 0.00125 * 100 land on 99.5 and 0.125 exactly; the second
# rounds to even.
@pytest.mark.parametrize("score, cell", [
    (0.125, "12.50"), (0.995, "99.50"), (1 / 3, "33.33"), (5e-324, "0.00"), (1.0, "100.00"),
    (0.00125, "0.12"), (0, "0.00"), (1, "100.00"),
])
def test_per_instance_csv_quotes_and_rounds_the_edges(tmp_path, score, cell):
    scores = RougeScore(score, score, score)
    row = ScoreRow(id="a,b", method='q"a', domain="x\ny", k=3, rouge1=scores, rouge2=scores,
                   rougeL=scores, parse_status="ok")
    harness.write_per_instance_csv(manifest_of([row]), tmp_path / "p.csv")
    _, line = (tmp_path / "p.csv").read_bytes().decode("utf-8").split("\n", 1)
    assert line == '"a,b","x\ny","q""a",3,ok,' + ",".join([cell] * 9) + "\n"


def aggregate_left_to_right(rows, group_by):
    """Each group's mean, its total added one row at a time in row order:
    the oracle ``aggregate`` must equal exactly."""
    fields = [f for f in ("method", "domain", "k") if f in group_by]
    groups: dict = {}
    for row in rows:
        groups.setdefault(tuple(getattr(row, f) for f in fields), []).append(row)
    out = []
    for key in sorted(groups):
        members = groups[key]
        means = []
        for name in ("rouge1", "rouge2", "rougeL"):
            totals = [0.0, 0.0, 0.0]
            for row in members:
                score = getattr(row, name)
                totals[0] += score.precision
                totals[1] += score.recall
                totals[2] += score.f1
            means.append(RougeScore(*(total / len(members) for total in totals)))
        out.append(AggregateRow(tuple(zip(fields, key)), len(members), *means))
    return out


GROUPINGS = [(), ("domain",), ("method", "k"), ("domain", "k")]


@settings(deadline=None, max_examples=200)
@given(st.lists(score_rows(labels=st.sampled_from(["News", "qa", "é"]) | LABELS),
                min_size=1, max_size=12),
       st.sampled_from(GROUPINGS))
@example([ScoreRow(id="x", method="qa", domain="News", k=0, rouge1=score, rouge2=score,
                   rougeL=score, parse_status="ok") for score in [RougeScore(0.1, 0.1, 0.1)] * 10],
         ())
def test_aggregate_is_the_left_to_right_mean_of_each_group(rows, group_by):
    assert aggregate(table_of(rows), group_by) == aggregate_left_to_right(rows, group_by)


# Labels as the loader and the config let them through: any text with no
# lone surrogate, no C0 control and no DEL, with quotes, commas, spaces,
# U+0085, U+2028 and non-ASCII text drawn often.
CSV_LABELS = st.text(
    st.characters(codec="utf-8", exclude_characters="".join(map(chr, [*range(32), 127])))
    | st.sampled_from('",\\ \x85\xa0\u2028\u2029é東'), max_size=6)
CSV_NAMES = ("per_instance.csv", "aggregate_method_k.csv", "aggregate_domain_k.csv",
             "compare.csv", "by_domain_k.csv", "parse_summary.csv")


def read_csv(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


@settings(deadline=None, max_examples=100)
@given(st.lists(score_rows(labels=CSV_LABELS, statuses=st.sampled_from(harness.PARSE_STATUSES)),
                min_size=1, max_size=5, unique_by=lambda row: (row.id, row.k)),
       CSV_LABELS, CSV_LABELS)
@example([ScoreRow(id='a,"b', method="\u2028", domain="", k=0, rouge1=RougeScore(0, 1, 0.5),
                   rouge2=RougeScore(0, 1, 0.5), rougeL=RougeScore(0, 1, 0.5),
                   parse_status="ok")], "qa", "\x85 é")
def test_every_csv_reads_back_as_the_rows_written(rows, method_a, method_b):
    written = {}
    write_csv = harness._write_csv

    def recording_write_csv(path, header, rows):
        rows = [header, *rows]
        written[Path(path).name] = [[str(cell) for cell in row] for row in rows]
        write_csv(path, rows[0], rows[1:])

    manifest = manifest_of(rows)
    with tempfile.TemporaryDirectory() as scratch, \
            mock.patch.object(harness, "_write_csv", recording_write_csv):
        out = Path(scratch)
        harness.write_per_instance_csv(manifest, out / "per_instance.csv")
        harness.write_aggregate_csv(manifest, ("method", "k"), out / "aggregate_method_k.csv")
        harness.write_aggregate_csv(manifest, ("domain", "k"), out / "aggregate_domain_k.csv")
        for name, method in (("a.json", method_a), ("b.json", method_b)):
            config = {"method": method, "lm": {"model": "m"}}
            save_manifest(dataclasses.replace(manifest, config=config), out / name)
        harness.run_compare([out / "a.json", out / "b.json"], out / "compare.csv")
        harness.run_report(out / "a.json", out)
        assert sorted(written) == sorted(CSV_NAMES)
        for name in CSV_NAMES:
            assert read_csv(out / name) == written[name], name
    assert [line[0] for line in written["per_instance.csv"][1:]] == [row.id for row in rows]


# Scores a table must give back as floats: the ends of [0, 1], a negative
# zero, the smallest subnormal, a repeating fraction, and 0 and 1 as ints.
TABLE_SCORE_VALUES = st.floats(0, 1) | st.sampled_from([0, 1, 0.0, -0.0, 1.0, 5e-324, 1 / 3])
TABLE_ROWS = st.lists(
    score_rows(labels=CSV_LABELS, statuses=st.sampled_from(harness.PARSE_STATUSES),
               scores=st.builds(RougeScore, TABLE_SCORE_VALUES, TABLE_SCORE_VALUES,
                                TABLE_SCORE_VALUES)),
    max_size=6, unique_by=lambda row: (row.id, row.k))


@settings(deadline=None, max_examples=200)
@given(TABLE_ROWS, TABLE_ROWS)
@example([ScoreRow(id="a", method="qa", domain="é", k=0, rouge1=RougeScore(0, 1, 5e-324),
                   rouge2=RougeScore(1 / 3, -0.0, 1.0), rougeL=RougeScore(0.0, 1, 0.5),
                   parse_status="ok")], [])
@example([plain_row("a"), plain_row("b", scores=RougeScore(0, 1, 1)), plain_row("c")], [])
def test_a_score_table_holds_its_rows(rows, others):
    table = table_of(rows)
    floats = list(map(with_float_scores, rows))
    assert len(table) == len(rows)
    # Ints come back as floats; -0.0 and 5e-324 come back as given.
    assert repr(list(table)) == repr(floats)
    assert [table[i] for i in range(-len(rows), len(rows))] == rows + rows
    assert list(table[1:-1]) == rows[1:-1]
    assert (table == table_of(others)) == (rows == others)
    assert table == table_of(map(with_float_scores, rows))
    assert eval(repr(table), {"ScoreTable": ScoreTable, "array": array.array}) == table
    if not rows:
        return
    manifest = manifest_of(rows)
    assert manifest == dataclasses.replace(manifest, rows=table)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "manifest.json"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        # The middle row written by hand with its scores as drawn, ints too.
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["rows"][len(rows) // 2] = row_as_dict(rows[len(rows) // 2])
        path.write_text(json.dumps(doc), encoding="utf-8")
        hand_written = load_manifest(path)
    assert loaded.rows == table and repr(list(loaded.rows)) == repr(floats)
    assert hand_written == loaded and repr(list(hand_written.rows)) == repr(floats)


# --- compare -----------------------------------------------------------------


def manifest_with_mean(tmp_path, name, f1, method="icl", scope="domain_specific"):
    score = RougeScore(f1, f1, f1)
    rows = table_of(
        ScoreRow(id=i, method=method, domain="News", k=0,
                 rouge1=score, rouge2=score, rougeL=score, parse_status="ok")
        for i in ("x", "y")
    )
    manifest = RunManifest(
        config={"method": method, "scope": scope, "lm": {"model": "m"}},
        rows=rows,
        cache=CacheStats(0, 0, 0),
        wall_clock_s=0.0,
    )
    path = tmp_path / name
    save_manifest(manifest, path)
    return path


def with_row_id_changed(manifest: RunManifest, index: int, new_id: str) -> RunManifest:
    rows = list(manifest.rows)
    rows[index] = dataclasses.replace(rows[index], id=new_id)
    return dataclasses.replace(manifest, rows=table_of(rows))


def older_layout(doc: dict, eval_ids, parse_counts) -> dict:
    """``doc`` as manifests were once written: with stored ``eval_ids`` and
    ``parse_counts`` beside the rows, and the model in every row."""
    rows = [{**row, "model": doc["config"]["lm"]["model"]} for row in doc["rows"]]
    return {**doc, "parse_counts": parse_counts, "eval_ids": list(eval_ids), "rows": rows}


def test_compare_with_itself_is_zero_delta(tmp_path):
    a = manifest_with_mean(tmp_path, "a.json", 0.5)
    table = run_compare([a, a], tmp_path / "cmp.csv")
    overall = table[0]
    assert overall["scope"] == "overall"
    assert overall["delta_icl#2"] == pytest.approx(0.0)
    text = (tmp_path / "cmp.csv").read_text()
    assert "+0.0%" in text


def test_compare_published_delta_formatting(tmp_path):
    # 30.67 -> 35.92 is a +17.1% move
    a = manifest_with_mean(tmp_path, "a.json", 0.3067, method="icl")
    b = manifest_with_mean(tmp_path, "b.json", 0.3592, method="qa")
    run_compare([a, b], tmp_path / "cmp.csv")
    lines = (tmp_path / "cmp.csv").read_text().splitlines()
    assert lines[0] == "scope,icl,qa-ds,delta_qa-ds"
    assert lines[1] == "overall,30.67,35.92,+17.1%"


def test_compare_mismatched_eval_sets(tmp_path):
    a = manifest_with_mean(tmp_path, "a.json", 0.5)
    b_path = tmp_path / "b.json"
    save_manifest(with_row_id_changed(load_manifest(a), 1, "z"), b_path)
    with pytest.raises(MismatchedEvalSets):
        run_compare([a, b_path], tmp_path / "cmp.csv")


def test_compare_averages_each_scope_over_its_rows_pooling_k(tmp_path):
    cells = [("x", "News", 0), ("y", "Reviews", 0), ("x", "News", 1), ("y", "Reviews", 1)]

    def manifest(name, method, f1s):
        scores = [RougeScore(f1, f1, f1) for f1 in f1s]
        rows = table_of(ScoreRow(id=i, method=method, domain=domain, k=k, rouge1=s, rouge2=s,
                                 rougeL=s, parse_status="ok")
                        for (i, domain, k), s in zip(cells, scores))
        save_manifest(RunManifest(config={"method": method, "lm": {"model": "m"}}, rows=rows,
                                  cache=CacheStats(0, 0, 0), wall_clock_s=0.0), tmp_path / name)
        return tmp_path / name

    a = manifest("a.json", "icl", [0.2, 0.4, 0.2, 0.4])
    b = manifest("b.json", "qa", [0.3, 0.5, 0.1, 0.7])
    run_compare([a, b], tmp_path / "cmp.csv")
    assert (tmp_path / "cmp.csv").read_text().splitlines() == [
        "scope,icl,qa-ds,delta_qa-ds",
        "overall,30.00,40.00,+33.3%",
        "News,20.00,20.00,+0.0%",
        "Reviews,40.00,60.00,+50.0%",
    ]


# --- CLI ---------------------------------------------------------------------


def write_cli_config(tmp_path, replay_dir=None, **lm_overrides):
    lm = dict(model=MODEL, backend="replay", max_in_flight=2)
    lm.update(lm_overrides)
    doc = {
        "lm": lm,
        "pool_fraction": 0.5,
        "seed": 0,
        "icl_examples": 1,
        "cache_dir": str(tmp_path / "cli-cache"),
        "replay_dir": str(replay_dir) if replay_dir else None,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_rank_eval_report_flow(tmp_path, replay_dir, capsys):
    config = write_cli_config(tmp_path, replay_dir=replay_dir)
    ranking = tmp_path / "ranking.json"
    assert main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--out", str(ranking)]) == 0
    assert ranking.exists()
    out = capsys.readouterr().out
    assert "topic" in out

    out_dir = tmp_path / "run"
    assert main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "qa", "--ranking", str(ranking), "--k", "0,1,2",
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "aggregate_method_k.csv").exists()

    report_dir = tmp_path / "report"
    assert main(["report", str(out_dir / "manifest.json"), "--out", str(report_dir)]) == 0
    assert (report_dir / "by_domain_k.csv").exists()


def test_cli_eval_scope_global(tmp_path, replay_dir):
    config = write_cli_config(tmp_path, replay_dir=replay_dir)
    ranking = tmp_path / "ranking.json"
    main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config), "--out", str(ranking)])
    out_dir = tmp_path / "global-run"
    assert main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "qa", "--ranking", str(ranking), "--scope", "global",
                 "--k", "2", "--out", str(out_dir)]) == 0
    manifest = load_manifest(out_dir / "manifest.json")
    assert manifest.config["scope"] == "global"
    assert all(r.rougeL.f1 == 1.0 for r in manifest.rows)


def test_cli_eval_malformed_k_list_is_a_usage_error(tmp_path, capsys):
    config = write_cli_config(tmp_path)
    out_dir = tmp_path / "run"
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
              "--method", "qa", "--k", "1,x", "--out", str(out_dir)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "argument --k: " in err and "'1,x'" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("k", ["", ","], ids=["empty", "comma"])
def test_cli_eval_empty_k_list_exit_code(tmp_path, capsys, k):
    config = write_cli_config(tmp_path)
    out_dir = tmp_path / "run"
    code = main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "qa", "--k", k, "--out", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == "error: k_values: must list at least one k\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("key, value", [
    ("templates", {"vanilla_instruction": "Condense the article below."}),
    ("lm.stop_sequences", ["END"]),
])
def test_cli_eval_unknown_config_key_exit_code(tmp_path, capsys, key, value):
    config = write_cli_config(tmp_path)
    doc = json.loads(config.read_text())
    *section, name = key.split(".")
    (doc[section[0]] if section else doc)[name] = value
    config.write_text(json.dumps(doc))
    out_dir = tmp_path / "run"
    code = main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "vanilla", "--out", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == f"error: unknown config key(s): {key}\n"
    assert not out_dir.exists()


def test_cli_eval_refuses_the_removed_budget_and_decoding_keys(tmp_path, capsys):
    # Every request's budget comes from its prompt and every request is
    # greedy, so a config that still sets either is refused, not ignored.
    config = write_cli_config(tmp_path, max_tokens=512, greedy=True)
    out_dir = tmp_path / "run"
    code = main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "vanilla", "--out", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == "error: unknown config key(s): lm.greedy, lm.max_tokens\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("doc,message", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
def test_cli_eval_bad_config_exit_code(tmp_path, capsys, doc, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out_dir = tmp_path / "run"
    code = main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "vanilla", "--out", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def test_cli_eval_unreadable_replay_recording_exit_code(tmp_path, replay_dir, capsys):
    replay = tmp_path / "replay"
    shutil.copytree(replay_dir, replay)
    conn = sqlite3.connect(replay / "cache.sqlite", isolation_level=None)
    try:
        keys = {key for (key,) in conn.execute("SELECT key FROM entries")}
        conn.execute("UPDATE entries SET completion = NULL")
    finally:
        conn.close()
    config = write_cli_config(tmp_path, replay_dir=replay)
    code = main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "icl", "--out", str(tmp_path / "run")])
    assert code == 6
    err = capsys.readouterr().err
    assert err.startswith("replay fixture gap: no readable recording for key ")
    assert any(key in err for key in keys)
    assert str(replay / "cache.sqlite") in err


def test_cli_eval_replay_dir_without_store_exit_code(tmp_path, capsys):
    replay = tmp_path / "replay"
    replay.mkdir()
    config = write_cli_config(tmp_path, replay_dir=replay)
    code = main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "vanilla", "--out", str(tmp_path / "run")])
    assert code == 6
    assert str(replay / "cache.sqlite") in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_eval_store_that_is_not_a_database_exit_code(tmp_path, replay_dir, capsys):
    config = write_cli_config(tmp_path, replay_dir=replay_dir)
    store = tmp_path / "cli-cache" / "cache.sqlite"
    store.parent.mkdir()
    garbage = bytes(range(256)) * 16
    store.write_bytes(garbage)
    code = main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "vanilla", "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot use response store ")
    assert str(store) in err
    assert store.read_bytes() == garbage
    assert not (tmp_path / "run").exists()


def run_eval_with(replay_dir, key, value, out_dir, method="icl") -> int:
    """``qasum eval`` on the replay recording, which holds every request
    of icl and of qa at k = 0, 1 and 2, with config ``key`` (``lm.name``
    for a key under ``lm``) set to ``value``; returns the exit code."""
    config = out_dir.parent / "config.json"
    doc = {"lm": {"model": MODEL, "backend": "replay"}, "pool_fraction": 0.5,
           "replay_dir": str(replay_dir), "ranking": str(replay_dir.parent / "ranking.json"),
           "k_values": [0, 1, 2]}
    *section, name = key.split(".")
    (doc[section[0]] if section else doc)[name] = value
    config.write_text(json.dumps(doc))
    return main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", method, "--out", str(out_dir)])


def test_cli_eval_unusable_cache_dir_exit_code(tmp_path, replay_dir, capsys):
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    store_is_a_directory = tmp_path / "odd"
    (store_is_a_directory / "cache.sqlite").mkdir(parents=True)
    for cache_dir in (str(a_file), str(a_file / "below"), str(store_is_a_directory),
                      "nul\x00byte", 7, ["list"]):
        assert run_eval_with(replay_dir, "cache_dir", cache_dir, tmp_path / "run") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run").exists()
    assert run_eval_with(replay_dir, "cache_dir", "", tmp_path / "run") == 0  # no cache


# Strings are kept to one relative path component that is not "..", so a
# generated directory stays inside the scratch directory the test runs in.
PATH_COMPONENTS = st.text(st.characters(blacklist_characters="/"), max_size=100).filter(
    lambda text: text != "..")
CACHE_DIR_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | PATH_COMPONENTS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4,
)


@settings(deadline=None)
@given(CACHE_DIR_VALUES)
def test_cli_eval_any_json_cache_dir_exits_with_a_documented_code(replay_dir, cache_dir):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            code = run_eval_with(replay_dir, "cache_dir", cache_dir, Path(scratch) / "run")
        finally:
            os.chdir(cwd)
    assert code in (0, 1)


# Any JSON value, with strings kept to one path component, weighted
# towards the small numbers and the words the config gives a meaning to.
EVAL_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.integers() | st.floats(0, 1)
    | st.floats(allow_nan=False) | PATH_COMPONENTS
    | st.sampled_from(["global", "domain_specific", "qa", "http", "replay", "News"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4,
)


@pytest.mark.parametrize("key", ["lm", *CONFIG_KEYS])
@settings(deadline=None, max_examples=50)
@given(method=st.sampled_from(["vanilla", "icl", "qa"]), value=EVAL_VALUES)
@example(method="qa", value="config.json")  # a file that is no ranking, store or directory
@example(method="qa", value=0)
@example(method="qa", value=-1)
@example(method="icl", value=0.9)
@example(method="qa", value=[])
@example(method="qa", value="m\ud800")
def test_cli_eval_any_json_value_under_any_key_exits_with_a_documented_code(
        replay_dir, key, method, value):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            out_dir = Path(scratch) / "run"
            code = run_eval_with(replay_dir, key, value, out_dir, method)
            assert code in (0, 1, 3, 4, 5, 6, 7, 8)
            assert code == 0 or not (out_dir / "manifest.json").exists()
        finally:
            os.chdir(cwd)


def test_eval_with_an_empty_eval_set_fails_before_any_request(tmp_path):
    backend = StubBackend()
    # Every (domain, task) group of the fixture holds 2 instances, and
    # ceil(0.9 * 2) = 2 of them go to the ICL pool.
    with pytest.raises(ValueError, match="pool_fraction 0.9 .*eval_subsample"):
        run_eval(make_config(pool_fraction=0.9), tmp_path / "run", backend=backend)
    assert backend.requests == []
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [("pool_fraction", 0.9), ("eval_subsample", 0),
                                        ("eval_subsample", -1), ("k_values", [])])
def test_cli_eval_nothing_to_evaluate_exit_code(tmp_path, replay_dir, capsys, key, value):
    out_dir = tmp_path / "run"
    assert run_eval_with(replay_dir, key, value, out_dir, "qa") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out_dir.exists()


def test_cli_rank_subsample_zero_exit_code(tmp_path, replay_dir, capsys):
    config = write_cli_config(tmp_path, replay_dir=replay_dir)
    code = main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--out", str(tmp_path / "r.json"), "--subsample", "0"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: rank_subsample: must be >= 1")
    assert not (tmp_path / "r.json").exists()


def test_cli_eval_duplicate_domains_exit_code(tmp_path, replay_dir, capsys):
    out_dir = tmp_path / "run"
    assert run_eval_with(replay_dir, "domains", ["News", "News"], out_dir) == 1
    assert capsys.readouterr().err == "error: domains: names must be unique\n"
    assert not out_dir.exists()


def test_cli_eval_replay_dir_with_http_backend_exit_code(tmp_path, replay_dir, capsys):
    # The http backend never reads replay_dir, so the run would go to the
    # endpoint instead of the recording.
    config = write_cli_config(tmp_path, replay_dir=replay_dir, backend="http",
                              endpoint="http://127.0.0.1:9/v1/completions", max_retries=0,
                              timeout=2)
    out_dir = tmp_path / "run"
    code = main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "vanilla", "--out", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == ("error: replay_dir: set, but lm.backend is 'http';"
                                       ' replay_dir needs lm.backend "replay"\n')
    assert not out_dir.exists()


@pytest.mark.parametrize("method", ["vanilla", "icl", "qa"])
@pytest.mark.parametrize("key, value, message", [
    ("icl_examples", 0, "icl_examples: must be >= 1"),
    ("icl_examples", -5, "icl_examples: must be >= 1"),
    ("domains", [], "domains: must list at least one domain"),
])
def test_cli_eval_refused_config_value_exit_code(tmp_path, replay_dir, capsys, method, key, value,
                                                 message):
    out_dir = tmp_path / "run"
    assert run_eval_with(replay_dir, key, value, out_dir, method) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def refused_eval_args(tmp_path, case) -> list[str]:
    """``qasum eval`` arguments, short of ``--config`` and ``--out``, for
    an input each ``REFUSED_EVALS`` case names."""
    corpus, ranking = tmp_path / "corpus.jsonl", tmp_path / "ranking.json"
    lines = CORPUS_PATH.read_text(encoding="utf-8").splitlines(keepends=True)
    corpus.write_text("".join(lines[:5] if case == "group-of-one" else lines), encoding="utf-8")
    if case == "model-mismatch":
        synthetic_ranking(ranking, model="other")
    else:  # two questions per domain
        save_ranking(RankingTable(model=MODEL, seed=0, subsample=None, created_at="t", domains={
            d: (RankedQuestion("topic", 0.5, 1), RankedQuestion("tone", 0.4, 1))
            for d in ("Dialogue", "News", "Reviews")}), ranking)
    args = {"model-mismatch": ["--method", "qa", "--k", "1"],
            "group-of-one": ["--method", "icl"],
            "short-pool": ["--method", "icl", "--icl-n", "2"],
            "short-ranking": ["--method", "qa", "--k", "3"]}[case]
    return ["eval", "--corpus", str(corpus), "--ranking", str(ranking), *args]


REFUSED_EVALS = {
    "model-mismatch": (7, "ranking error: ranking was computed for model 'other', run uses "
                          "'scripted-1' (set \"allow_model_mismatch\": true in the config file"
                          " to proceed anyway)\n"),
    "group-of-one": (3, "corpus error: group ('Reviews', 'amazon_food') has 1 instance(s);"
                        " need >= 2\n"),
    "short-pool": (3, "corpus error: ICL pool for ('Dialogue', 'samsum') has 1 instance(s);"
                      " requested 2\n"),
    "short-ranking": (7, "ranking error: k=3 outside [0, 2]\n"),
}


@pytest.mark.parametrize("case", REFUSED_EVALS)
def test_cli_eval_refused_input_exit_code(tmp_path, replay_dir, capsys, case):
    config = write_cli_config(tmp_path, replay_dir=replay_dir)
    out_dir = tmp_path / "run"
    code = main([*refused_eval_args(tmp_path, case), "--config", str(config),
                 "--out", str(out_dir)])
    assert (code, capsys.readouterr().err) == REFUSED_EVALS[case]
    assert not out_dir.exists()


BAD_RANKINGS = {
    "empty-object": "{}",
    "list": "[]",
    "not-json": "{",
    "no-mean-precision": json.dumps({"model": MODEL, "seed": 0, "created_at": "t",
                                     "domains": {"News": [{"key": "topic", "n": 1}]}}),
    "string-mean-precision": json.dumps({"model": MODEL, "seed": 0, "created_at": "t", "domains": {
        "News": [{"key": "topic", "mean_precision": "high", "n": 1}]}}),
    "domains-list": json.dumps({"model": MODEL, "seed": 0, "created_at": "t", "domains": []}),
}


@pytest.mark.parametrize("text", BAD_RANKINGS.values(), ids=BAD_RANKINGS.keys())
def test_cli_eval_bad_ranking_file_exit_code(tmp_path, replay_dir, capsys, text):
    ranking = tmp_path / "ranking.json"
    ranking.write_text(text)
    config = write_cli_config(tmp_path, replay_dir=replay_dir)
    out_dir = tmp_path / "run"
    code = main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "qa", "--ranking", str(ranking), "--out", str(out_dir)])
    assert code == 7
    assert capsys.readouterr().err.startswith(f"ranking error: {ranking}: not a ranking file (")
    assert not out_dir.exists()


def bad_manifests(tmp_path):
    """Manifest texts that ``load_manifest`` refuses, by name."""
    doc = json.loads(manifest_with_mean(tmp_path, "good.json", 0.5).read_text())
    row = doc["rows"][0]
    nan, inf = float("nan"), float("inf")
    return {
        "no-config": {key: value for key, value in doc.items() if key != "config"},
        "lm-not-an-object": {**doc, "config": {**doc["config"], "lm": 5}},
        "empty-object": {},
        "list": [],
        "no-rows": {**doc, "rows": []},
        "row-list": {**doc, "rows": [[1]]},
        "string-score": {**doc, "rows": [{**row, "rougeL": {"p": "1", "r": 1, "f1": 1}}]},
        "int-domain": {**doc, "rows": [{**row, "domain": 7}]},
        "unknown-status": {**doc, "rows": [{**row, "parse_status": "bogus"}]},
        "repeated-row": {**doc, "rows": [*doc["rows"], row]},
        "nan-score": {**doc, "rows": [{**row, "rougeL": dict.fromkeys(("p", "r", "f1"), nan)}]},
        "inf-score": {**doc, "rows": [{**row, "rouge1": {**row["rouge1"], "r": inf}}]},
        "negative-score": {**doc, "rows": [{**row, "rouge2": {**row["rouge2"], "f1": -0.5}}]},
        "score-above-one": {**doc, "rows": [{**row, "rougeL": {"p": 7.0, "r": 7.0, "f1": 7.0}}]},
        "negative-k": {**doc, "rows": [{**row, "k": -3}]},
        "k-above-ten": {**doc, "rows": [{**row, "k": 11}]},
        "string-wall-clock": {**doc, "wall_clock_s": "soon"},
        "negative-wall-clock": {**doc, "wall_clock_s": -1.5},
        "nan-wall-clock": {**doc, "wall_clock_s": nan},
        "string-cache-count": {**doc, "cache": {**doc["cache"], "hits": "x"}},
        "negative-cache-count": {**doc, "cache": {**doc["cache"], "hits": -5}},
        "bool-cache-count": {**doc, "cache": {**doc["cache"], "misses": True}},
    }


@pytest.mark.parametrize("name, problem", [
    ("string-wall-clock", "ValueError: wall_clock_s is not a non-negative number: 'soon'"),
    ("negative-wall-clock", "ValueError: wall_clock_s is not a non-negative number: -1.5"),
    ("nan-wall-clock", "ValueError: wall_clock_s is not a non-negative number: nan"),
    ("string-cache-count", "ValueError: cache counts are not all non-negative ints: "
                           "{'hits': 'x', 'misses': 0, 'entries': 0}"),
    ("negative-cache-count", "ValueError: cache counts are not all non-negative ints: "
                             "{'hits': -5, 'misses': 0, 'entries': 0}"),
    ("bool-cache-count", "ValueError: cache counts are not all non-negative ints: "
                         "{'hits': 0, 'misses': True, 'entries': 0}"),
])
def test_load_manifest_refuses_run_fields_that_are_not_counts_or_times(tmp_path, name, problem):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_manifests(tmp_path)[name]))
    with pytest.raises(ValueError, match=re.escape(f"{bad}: not a run manifest ({problem})")):
        load_manifest(bad)


@pytest.mark.parametrize("name", ["no-config", "lm-not-an-object", "empty-object", "list",
                                  "no-rows", "row-list", "string-score", "int-domain",
                                  "unknown-status", "repeated-row", "nan-score", "inf-score",
                                  "negative-score", "score-above-one", "negative-k",
                                  "k-above-ten", "string-wall-clock", "negative-wall-clock",
                                  "nan-wall-clock", "string-cache-count",
                                  "negative-cache-count", "bool-cache-count", "not-json"])
def test_cli_bad_manifest_exit_code(tmp_path, capsys, name):
    good = manifest_with_mean(tmp_path, "good.json", 0.5)
    bad = tmp_path / "bad.json"
    bad.write_text("{" if name == "not-json" else json.dumps(bad_manifests(tmp_path)[name]))
    assert main(["report", str(bad), "--out", str(tmp_path / "report")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not a run manifest (")
    assert not (tmp_path / "report").exists()
    assert main(["compare", str(good), str(bad), "--out", str(tmp_path / "c.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not a run manifest (")
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("text", UNDECODABLE_JSON.values(), ids=UNDECODABLE_JSON.keys())
def test_cli_manifest_the_json_decoder_refuses_exit_code(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["report", str(bad), "--out", str(tmp_path / "report")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not a run manifest (")
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("text", UNDECODABLE_JSON.values(), ids=UNDECODABLE_JSON.keys())
def test_cli_ranking_file_the_json_decoder_refuses_exit_code(tmp_path, replay_dir, capsys,
                                                             text):
    ranking = tmp_path / "ranking.json"
    ranking.write_text(text)
    config = write_cli_config(tmp_path, replay_dir=replay_dir)
    out_dir = tmp_path / "run"
    code = main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "qa", "--ranking", str(ranking), "--out", str(out_dir)])
    assert code == 7
    assert capsys.readouterr().err.startswith(f"ranking error: {ranking}: not a ranking file (")
    assert not out_dir.exists()


@pytest.mark.parametrize("text", UNDECODABLE_JSON.values(), ids=UNDECODABLE_JSON.keys())
def test_cli_config_the_json_decoder_refuses_exit_code(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "ranking.json"
    assert main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {config}: not a JSON document (")
    assert not out.exists()


@pytest.mark.parametrize("key", ["id", "method", "domain"])
def test_cli_refuses_manifests_with_a_control_character_in_a_row_label(tmp_path, capsys, key):
    # A bare CR in a label would go unquoted into compare.csv on Python 3.12
    # and before, and a CSV reader would split its row in two.
    paths = [manifest_with_mean(tmp_path, name, 0.5) for name in ("a.json", "b.json")]
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        for row in doc["rows"]:
            row[key] = "Ne\rws" + row[key]
        path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "compare.csv"
    assert main(["compare", *map(str, paths), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[0]}: not a run manifest (")
    assert f"{key} holds control character '\\r'" in err
    assert not out.exists()
    assert main(["report", str(paths[0]), "--out", str(tmp_path / "report")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {paths[0]}: not a run manifest (")
    assert not (tmp_path / "report").exists()


def test_cli_compare_single_manifest_exit_code(tmp_path, capsys):
    a = manifest_with_mean(tmp_path, "a.json", 0.5)
    assert main(["compare", str(a), "--out", str(tmp_path / "c.csv")]) == 1
    assert capsys.readouterr().err == "error: compare needs at least two manifests\n"
    assert not (tmp_path / "c.csv").exists()


def test_cli_unreachable_backend_exit_code(tmp_path):
    config = write_cli_config(
        tmp_path, backend="http", endpoint="http://127.0.0.1:9/v1/completions",
        max_retries=0, timeout=2,
    )
    code = main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--out", str(tmp_path / "r.json")])
    assert code == 4


@pytest.fixture
def rate_limiting_server():
    with scripted_server(Reply(status=429, body=b'{"error": "refused"}')) as server:
        yield server.url


@pytest.fixture(params=[401, 404])
def refusing_server(request):
    with scripted_server(Reply(status=request.param, body=b'{"error": "refused"}')) as server:
        yield server.url


def run_cli_eval(tmp_path, endpoint):
    config = write_cli_config(tmp_path, backend="http", endpoint=endpoint,
                              max_retries=0, timeout=2)
    out_dir = tmp_path / "run"
    code = main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "vanilla", "--out", str(out_dir)])
    return code, out_dir


def test_cli_eval_unreachable_backend_exit_code(tmp_path, capsys):
    code, out_dir = run_cli_eval(tmp_path, "http://127.0.0.1:9/v1/completions")
    assert code == 4
    assert "backend unreachable" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_eval_rate_limited_exit_code(tmp_path, rate_limiting_server, capsys):
    code, out_dir = run_cli_eval(tmp_path, rate_limiting_server)
    assert code == 5
    assert "rate limited" in capsys.readouterr().err
    assert not out_dir.exists()


def run_cli_rank(tmp_path, endpoint):
    config = write_cli_config(tmp_path, backend="http", endpoint=endpoint,
                              max_retries=0, timeout=2)
    ranking = tmp_path / "ranking.json"
    code = main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--out", str(ranking)])
    return code, ranking


def test_cli_rank_rate_limited_exit_code(tmp_path, rate_limiting_server, capsys):
    code, ranking = run_cli_rank(tmp_path, rate_limiting_server)
    assert code == 5
    assert "rate limited" in capsys.readouterr().err
    assert not ranking.exists()


def test_cli_eval_refusing_backend_exit_code(tmp_path, refusing_server, capsys):
    code, out_dir = run_cli_eval(tmp_path, refusing_server)
    assert code == 4
    assert "backend unreachable" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_rank_refusing_backend_exit_code(tmp_path, refusing_server, capsys):
    code, ranking = run_cli_rank(tmp_path, refusing_server)
    assert code == 4
    assert "backend unreachable" in capsys.readouterr().err
    assert not ranking.exists()


def test_cli_rank_untrusted_certificate_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    with scripted_server(Reply(), tls=True) as server:
        config = write_cli_config(tmp_path, backend="http", endpoint=server.url,
                                  max_retries=3, max_in_flight=1, timeout=2)
        started = time.monotonic()
        code = main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config),
                     "--out", str(tmp_path / "ranking.json")])
        elapsed = time.monotonic() - started
    assert code == 4
    assert "certificate verify failed" in capsys.readouterr().err
    assert not (tmp_path / "ranking.json").exists()
    # A retried call would open 4 connections and sleep 3.5 s. The one call in
    # flight fails on its first, and the batch starts no other call.
    assert server.connections == 1 and not server.posts
    assert elapsed < 3.5


def test_cli_eval_redirecting_backend_exit_code(tmp_path, capsys):
    redirect = Reply(status=308, body=b"", headers=(("Location", "https://lm.test/v2"),))
    with scripted_server(redirect) as server:
        code, out_dir = run_cli_eval(tmp_path, server.url)
    assert code == 4
    assert "https://lm.test/v2" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_eval_non_http_endpoint_exit_code(tmp_path, capsys):
    code, out_dir = run_cli_eval(tmp_path, "ftp://127.0.0.1/v1/completions")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: endpoint is not an http(s) URL")
    assert not out_dir.exists()


def test_cli_qa_without_ranking_exit_code(tmp_path, replay_dir):
    config = write_cli_config(tmp_path, replay_dir=replay_dir)
    code = main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "qa", "--out", str(tmp_path / "x")])
    assert code == 7


def test_cli_compare_mismatch_exit_code(tmp_path):
    a = manifest_with_mean(tmp_path, "a.json", 0.5)
    save_manifest(with_row_id_changed(load_manifest(a), 1, "z"), tmp_path / "b.json")
    code = main(["compare", str(a), str(tmp_path / "b.json"), "--out", str(tmp_path / "c.csv")])
    assert code == 8


@pytest.mark.parametrize("case", ["fewer-rows", "other-domain"])
def test_cli_compare_checks_the_rows_not_stored_eval_ids(tmp_path, capsys, case):
    # Both manifests store the same eval ids, but b's rows cover fewer
    # instances, or the same ids under another domain.
    a = manifest_with_mean(tmp_path, "a.json", 0.5)
    doc = json.loads(a.read_text())
    rows = doc["rows"][:1] if case == "fewer-rows" else [
        {**row, "domain": "Reviews"} for row in doc["rows"]]
    counts = {"ok": len(rows), "fallback": 0, "failed": 0}
    b = tmp_path / "b.json"
    b.write_text(json.dumps(older_layout({**doc, "rows": rows}, ("x", "y"), counts)))
    out = tmp_path / "c.csv"
    assert main(["compare", str(a), str(b), "--out", str(out)]) == 8
    assert capsys.readouterr().err == (
        "mismatched eval sets: manifests evaluate different instance sets\n")
    assert not out.exists()


def test_cli_report_counts_parse_statuses_from_rows(tmp_path):
    doc = json.loads(manifest_with_mean(tmp_path, "a.json", 0.5).read_text())
    doc["rows"][1]["parse_status"] = "fallback"
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(older_layout(doc, ("x", "y"), {"ok": 0, "failed": 99})))
    assert main(["report", str(stale), "--out", str(tmp_path / "report")]) == 0
    assert (tmp_path / "report" / "parse_summary.csv").read_text() == (
        "parse_status,count\nok,1\nfallback,1\nfailed,0\n")


@pytest.mark.parametrize("epoch", ["abc", "1e9", "99999999999999999999"])
def test_rank_refuses_a_bad_source_date_epoch_before_any_call(tmp_path, replay_dir, monkeypatch,
                                                              capsys, epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    out = tmp_path / "ranking.json"
    backend = StubBackend(reply=" an answer")
    with pytest.raises(ValueError, match="^SOURCE_DATE_EPOCH: "):
        run_rank(make_config(cache_dir=tmp_path / "c"), out, backend=backend)
    assert backend.requests == []
    assert not out.exists()

    config = write_cli_config(tmp_path, replay_dir=replay_dir)
    assert main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: SOURCE_DATE_EPOCH: ")
    assert not out.exists()


def test_cli_corpus_error_exit_code(tmp_path, replay_dir):
    config = write_cli_config(tmp_path, replay_dir=replay_dir)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a"}\n')
    code = main(["rank", "--corpus", str(bad), "--config", str(config),
                 "--out", str(tmp_path / "r.json")])
    assert code == 3


def test_cli_lone_surrogate_in_corpus_exit_code(tmp_path, replay_dir, capsys):
    config = write_cli_config(tmp_path, replay_dir=replay_dir)
    lines = CORPUS_PATH.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    rec["reference"] += "\udc80"
    lines[1] = json.dumps(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["eval", "--corpus", str(bad), "--config", str(config),
                 "--method", "vanilla", "--out", str(tmp_path / "x")])
    assert code == 3
    assert "line 2: field 'reference'" in capsys.readouterr().err


def test_cli_invalid_utf8_in_corpus_exit_code(tmp_path, replay_dir, capsys):
    config = write_cli_config(tmp_path, replay_dir=replay_dir)
    lines = CORPUS_PATH.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b'"article": "', b'"article": "\xff\xfe', 1)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\n".join(lines))
    code = main(["eval", "--corpus", str(bad), "--config", str(config),
                 "--method", "vanilla", "--out", str(tmp_path / "x")])
    assert code == 3
    assert capsys.readouterr().err == (
        "corpus error: line 3: invalid UTF-8: byte 0xff (invalid start byte)\n")
    assert not (tmp_path / "x").exists()
