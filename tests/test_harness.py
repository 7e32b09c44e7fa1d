"""Harness orchestration: config, eval runs, compare, report, CLI."""

from __future__ import annotations

from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
import json
import threading

import pytest

from conftest import CORPUS_PATH, MODEL, StubBackend, make_config, make_lm_config
from qasum.cli import main
from qasum.corpus import load_corpus, sample_icl_examples, split_corpus
from qasum.harness import (
    MismatchedEvalSets,
    RunManifest,
    config_from_file,
    load_manifest,
    run_compare,
    run_eval,
    save_manifest,
)
from qasum.lm import CacheStats, LmError, RateLimited
from qasum.metrics import RougeScore, ScoreRow
from qasum.prompting import SINGLE_QA_INSTRUCTION, build_single_qa
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
    cfg = config_from_file(path, corpus="c.jsonl", method="icl", seed=5)
    assert cfg.lm.model == "m9"
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


def test_config_template_overrides_reach_prompts(tmp_path):
    from qasum.harness import config_from_dict

    cfg = config_from_dict({
        "corpus": str(CORPUS_PATH),
        "lm": {"model": MODEL, "backend": "replay"},
        "templates": {"vanilla_instruction": "Condense the article below."},
        "pool_fraction": 0.5,
    }, method="vanilla", cache_dir=str(tmp_path / "c"))
    backend = StubBackend(reply=" s")
    run_eval(cfg, tmp_path, backend=backend)
    assert all(p.prompt.startswith("Condense the article below.") for p in backend.requests)


# --- eval behavior -----------------------------------------------------------


def test_eval_icl_forces_k_zero(tmp_path):
    backend = StubBackend(reply=" a summary")
    cfg = make_config(method="icl", k_values=(0, 1, 2), cache_dir=tmp_path / "c", out=tmp_path)
    manifest = run_eval(cfg, tmp_path, backend=backend)
    assert {r.k for r in manifest.rows} == {0}
    assert len(manifest.rows) == 3


def test_eval_vanilla_smoke(tmp_path):
    backend = StubBackend(reply=" a summary")
    cfg = make_config(method="vanilla", cache_dir=tmp_path / "c", out=tmp_path)
    manifest = run_eval(cfg, tmp_path, backend=backend)
    assert len(manifest.rows) == 3
    assert all(r.method == "vanilla" and r.k == 0 for r in manifest.rows)
    assert all(r.parse_status == "ok" for r in manifest.rows)
    # vanilla prompts carry no example blocks
    assert all(p.prompt.count("Summarize the following article.") == 1 for p in backend.requests)


def test_eval_qa_k0_prompts_equal_icl_prompts(tmp_path):
    ranking = tmp_path / "ranking.json"
    synthetic_ranking(ranking)

    icl_backend = StubBackend(reply=" s")
    run_eval(
        make_config(method="icl", cache_dir=tmp_path / "c1", out=tmp_path / "icl"),
        tmp_path / "icl",
        backend=icl_backend,
    )
    qa_backend = StubBackend(reply=" s")
    run_eval(
        make_config(method="qa", k_values=(0,), ranking=ranking,
                    cache_dir=tmp_path / "c2", out=tmp_path / "qa"),
        tmp_path / "qa",
        backend=qa_backend,
    )
    assert {p.prompt for p in icl_backend.requests} == {p.prompt for p in qa_backend.requests}


def test_eval_qa_requires_ranking(tmp_path):
    cfg = make_config(method="qa", cache_dir=tmp_path / "c", out=tmp_path)
    with pytest.raises(RankingError):
        run_eval(cfg, tmp_path)


def test_eval_qa_sets_max_tokens_per_k(tmp_path):
    ranking = tmp_path / "ranking.json"
    synthetic_ranking(ranking)
    backend = StubBackend(reply=" A1: a.\nSummary: s.")
    cfg = make_config(method="qa", k_values=(0, 1), ranking=ranking,
                      cache_dir=tmp_path / "c", out=tmp_path)
    run_eval(cfg, tmp_path, backend=backend)
    max_tokens_seen = {p.max_tokens for p in backend.requests}
    assert {512, 544} <= max_tokens_seen


class FailingBackend:
    def complete(self, request):
        raise LmError("boom")


def test_eval_failures_become_failed_rows(tmp_path):
    cfg = make_config(method="icl", cache_dir=tmp_path / "c", out=tmp_path)
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
    by_id = corpus.by_id()
    table = load_ranking(cfg.ranking)
    prompts = set()
    for i in split.eval_set:
        inst = by_id[i]
        for example in sample_icl_examples(split, corpus, inst.domain, inst.task,
                                           cfg.icl_examples, cfg.seed):
            for k in k_values:
                for q in top_k(table, k, domain=inst.domain):
                    prompts.add(build_single_qa(example.article, q).text)
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
                          out=out, lm=make_lm_config(max_in_flight=in_flight))
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
                      cache_dir=tmp_path / "c", out=tmp_path)
    manifest = run_eval(cfg, tmp_path, backend=FailingQuestionBackend(second.text))
    status = {(r.id, r.k): r.parse_status for r in manifest.rows}
    assert {s for (_, k), s in status.items() if k < 2} == {"ok"}
    assert {s for (_, k), s in status.items() if k == 2} == {"failed"}


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
                      cache_dir=tmp_path / "c", out=out)
    with pytest.raises(RateLimited):
        run_eval(cfg, out, backend=RateLimitedAnswers())
    assert not out.exists()


def test_eval_subsample_is_stable(tmp_path):
    cfg1 = make_config(method="icl", eval_subsample=1, cache_dir=tmp_path / "c1", out=tmp_path / "a")
    cfg2 = make_config(method="icl", eval_subsample=1, cache_dir=tmp_path / "c2", out=tmp_path / "b")
    m1 = run_eval(cfg1, tmp_path / "a", backend=StubBackend(reply=" s"))
    m2 = run_eval(cfg2, tmp_path / "b", backend=StubBackend(reply=" s"))
    assert m1.eval_ids == m2.eval_ids
    assert len(m1.eval_ids) == 3  # one per domain


def test_manifest_round_trip(tmp_path):
    cfg = make_config(method="icl", cache_dir=tmp_path / "c", out=tmp_path)
    manifest = run_eval(cfg, tmp_path, backend=StubBackend(reply=" s"))
    loaded = load_manifest(tmp_path / "manifest.json")
    assert loaded.rows == manifest.rows
    assert loaded.eval_ids == manifest.eval_ids
    assert loaded.parse_counts == manifest.parse_counts


def test_aggregates_recompute_from_rows(tmp_path):
    cfg = make_config(method="icl", cache_dir=tmp_path / "c", out=tmp_path)
    manifest = run_eval(cfg, tmp_path, backend=StubBackend(reply=" s"))
    from qasum.metrics import aggregate

    (agg,) = aggregate(list(manifest.rows), ("method", "k"))
    manual = sum(r.rougeL.f1 for r in manifest.rows) / len(manifest.rows)
    assert agg.rougeL.f1 == pytest.approx(manual, abs=1e-12)


# --- compare -----------------------------------------------------------------


def manifest_with_mean(tmp_path, name, f1, method="icl", scope="domain_specific"):
    score = RougeScore(f1, f1, f1)
    rows = tuple(
        ScoreRow(id=i, method=method, model="m", domain="News", k=0,
                 rouge1=score, rouge2=score, rougeL=score, parse_status="ok")
        for i in ("x", "y")
    )
    manifest = RunManifest(
        config={"method": method, "scope": scope, "lm": {"model": "m"}},
        rows=rows,
        cache=CacheStats(0, 0, 0),
        wall_clock_s=0.0,
        parse_counts={"ok": 2, "fallback": 0, "failed": 0},
        eval_ids=("x", "y"),
    )
    path = tmp_path / name
    save_manifest(manifest, path)
    return path


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
    b = load_manifest(a)
    mismatched = RunManifest(
        config=b.config, rows=b.rows, cache=b.cache, wall_clock_s=0.0,
        parse_counts=b.parse_counts, eval_ids=("x", "z"),
    )
    save_manifest(mismatched, b_path)
    with pytest.raises(MismatchedEvalSets):
        run_compare([a, b_path], tmp_path / "cmp.csv")


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
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            payload = b'{"error": "rate limited"}'
            self.send_response(429)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/completions"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


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


def test_cli_rank_rate_limited_exit_code(tmp_path, rate_limiting_server, capsys):
    config = write_cli_config(tmp_path, backend="http", endpoint=rate_limiting_server,
                              max_retries=0, timeout=2)
    ranking = tmp_path / "ranking.json"
    code = main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--out", str(ranking)])
    assert code == 5
    assert "rate limited" in capsys.readouterr().err
    assert not ranking.exists()


def test_cli_qa_without_ranking_exit_code(tmp_path, replay_dir):
    config = write_cli_config(tmp_path, replay_dir=replay_dir)
    code = main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "qa", "--out", str(tmp_path / "x")])
    assert code == 7


def test_cli_compare_mismatch_exit_code(tmp_path):
    a = manifest_with_mean(tmp_path, "a.json", 0.5)
    b = load_manifest(a)
    mismatched = RunManifest(
        config=b.config, rows=b.rows, cache=b.cache, wall_clock_s=0.0,
        parse_counts=b.parse_counts, eval_ids=("x", "z"),
    )
    save_manifest(mismatched, tmp_path / "b.json")
    code = main(["compare", str(a), str(tmp_path / "b.json"), "--out", str(tmp_path / "c.csv")])
    assert code == 8


def test_cli_corpus_error_exit_code(tmp_path, replay_dir):
    config = write_cli_config(tmp_path, replay_dir=replay_dir)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a"}\n')
    code = main(["rank", "--corpus", str(bad), "--config", str(config),
                 "--out", str(tmp_path / "r.json")])
    assert code == 3
