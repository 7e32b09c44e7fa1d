"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` reports the same results as test outcomes. The
replay-backed criteria use the session-recorded fixture directory, so no
network or model is involved.
"""

from __future__ import annotations

import json
import os
import random
import string
import time

import pytest

from conftest import (
    CORPUS_PATH,
    EXPECTED_RANK_ORDER,
    GOLDEN_DIR,
    MODEL,
    PROMPT_GOLDEN_DIR,
)
from qasum.cli import main
from qasum.harness import load_manifest
from qasum.lm import compute_max_tokens
from qasum.metrics import Reference, lcs_length, overlap_precision, rouge_scores, tokenize
from qasum.prompting import (
    IclExample,
    PARSE_FAILED,
    PARSE_FALLBACK,
    PARSE_OK,
    build_qa_prompt,
    parse_output,
    render_output_block,
)
from qasum.questions import builtin_bank, load_ranking
from test_metrics import lcs_brute
from test_prompting import EX_ANSWERS5, EX_ARTICLE, EX_REFERENCE, QS5, TARGET_ARTICLE


def _pass(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def _write_config(tmp_path, replay_dir, cache_dir):
    doc = {
        "lm": {"model": MODEL, "backend": "replay", "max_in_flight": 2},
        "pool_fraction": 0.5,
        "seed": 0,
        "icl_examples": 1,
        "cache_dir": str(cache_dir),
        "replay_dir": str(replay_dir),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


# -- criterion: metric oracle suite -------------------------------------------


def test_criterion_metric_oracles():
    started = time.monotonic()
    rng = random.Random(20240501)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(1000):
        a = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
        b = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
        assert lcs_length(a, b) == lcs_brute(a, b)

    r1, r2, _ = rouge_scores(tokenize("the cat"), Reference.from_text("the cat sat"))
    assert abs(r1.precision - 1.0) < 1e-9
    assert abs(r1.recall - 2 / 3) < 1e-9
    assert abs(r1.f1 - 0.8) < 1e-9

    assert abs(r2.precision - 1.0) < 1e-9
    assert abs(r2.recall - 0.5) < 1e-9
    assert abs(r2.f1 - 2 / 3) < 1e-9

    rl = rouge_scores(tokenize("the cat sat"), Reference.from_text("the sat cat"))[2]
    assert abs(rl.precision - 2 / 3) < 1e-9
    assert abs(rl.recall - 2 / 3) < 1e-9
    assert abs(rl.f1 - 2 / 3) < 1e-9

    answer, reference = tokenize("the cat ran"), Reference.from_text("the dog sat on the cat")
    assert abs(overlap_precision(answer, reference) - 2 / 3) < 1e-9

    elapsed = time.monotonic() - started
    assert elapsed < 10, f"metric oracle suite took {elapsed:.1f}s"
    _pass("metric-oracle-suite")


# -- criterion: symmetry property ----------------------------------------------


def test_criterion_symmetry():
    rng = random.Random(99)
    words = ["the", "cat", "sat", "dog", "ran", "mat", "on", "a"]
    for _ in range(1000):
        a = " ".join(rng.choice(words) for _ in range(rng.randint(0, 10)))
        b = " ".join(rng.choice(words) for _ in range(rng.randint(0, 10)))
        forward = rouge_scores(tokenize(a), Reference.from_text(b))
        backward = rouge_scores(tokenize(b), Reference.from_text(a))
        for ab, ba in zip(forward, backward):  # ROUGE-1, -2 and -L
            assert ab.precision == ba.recall
    _pass("symmetry-property")


# -- criterion: ranking oracle --------------------------------------------------


def test_criterion_ranking_oracle(tmp_path, replay_dir, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    started = time.monotonic()
    config = _write_config(tmp_path, replay_dir, tmp_path / "cache-a")
    first, second = tmp_path / "rank1.json", tmp_path / "rank2.json"
    assert main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--out", str(first)]) == 0
    assert main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--out", str(second)]) == 0

    table = load_ranking(first)
    for domain, ranked in table.domains.items():
        keys = [r.key for r in ranked]
        assert keys[0] == "topic", f"{domain}: topic not first"
        assert keys[-1] == "tone", f"{domain}: tone not last"
        assert tuple(keys) == EXPECTED_RANK_ORDER

    assert first.read_bytes() == second.read_bytes()
    elapsed = time.monotonic() - started
    assert elapsed < 5, f"ranking oracle took {elapsed:.1f}s"
    _pass("ranking-oracle")


# -- criterion: prompt golden tests ---------------------------------------------


def test_criterion_prompt_goldens():
    examples5 = [IclExample(EX_ARTICLE, EX_REFERENCE, EX_ANSWERS5)]
    examples2 = [IclExample(EX_ARTICLE, EX_REFERENCE, EX_ANSWERS5[:2])]
    examples0 = [IclExample(EX_ARTICLE, EX_REFERENCE)]

    cases = {
        "qa_k0.txt": build_qa_prompt(TARGET_ARTICLE, [], examples0),
        "qa_k2.txt": build_qa_prompt(TARGET_ARTICLE, QS5[:2], examples2),
        "qa_k5.txt": build_qa_prompt(TARGET_ARTICLE, QS5, examples5),
    }
    for name, bundle in cases.items():
        golden = (PROMPT_GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert bundle.text == golden, f"golden mismatch: {name}"

    # icl is qa at k = 0: the same prompt, so the same golden.
    assert cases["qa_k0.txt"].text == (PROMPT_GOLDEN_DIR / "icl.txt").read_text(encoding="utf-8")
    _pass("prompt-goldens")


# -- criterion: parser round-trip ------------------------------------------------


def test_criterion_parser_round_trip():
    rng = random.Random(4242)
    bank = builtin_bank()

    def phrase():
        return " ".join(
            "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 7)))
            for _ in range(rng.randint(1, 5))
        )

    for _ in range(1000):
        k = rng.randint(1, 5)
        answers = [phrase() for _ in range(k)]
        summary = phrase()
        bundle = build_qa_prompt(
            TARGET_ARTICLE, bank[:k], [IclExample(EX_ARTICLE, EX_REFERENCE, tuple(answers))]
        )
        completion = " " + render_output_block(answers, summary)[len("A: ") :]
        parsed = parse_output(completion, bundle)
        assert parsed.parse_status == PARSE_OK
        assert list(parsed.answers) == answers
        assert parsed.summary == summary

    bundle2 = build_qa_prompt(
        TARGET_ARTICLE, bank[:2], [IclExample(EX_ARTICLE, EX_REFERENCE, ("a", "b"))]
    )
    fallback = parse_output(" A1: alpha. A2: beta.\nthe trailing summary text", bundle2)
    assert fallback.parse_status == PARSE_FALLBACK
    assert fallback.summary == "the trailing summary text"

    failed = parse_output("garbage", bundle2)
    assert failed.parse_status == PARSE_FAILED
    assert failed.summary == ""
    _pass("parser-round-trip")


# -- criterion: max_tokens law ----------------------------------------------------


def test_criterion_max_tokens_law():
    for k in range(11):
        assert compute_max_tokens(k) == 512 + 32 * k
    _pass("max-tokens-law")


# -- criterion: end-to-end replay --------------------------------------------------


AGGREGATE_FILES = ("aggregate_method_k.csv", "aggregate_domain_k.csv")
EVAL_GOLDEN_FILES = AGGREGATE_FILES + ("per_instance.csv",)
REPORT_FILES = ("overall.md", "by_domain_k.csv", "parse_summary.csv")


def _assert_golden(path, name):
    golden = GOLDEN_DIR / name
    assert path.read_bytes() == golden.read_bytes(), f"{name} diverges from golden"


def _run_evals(tmp_path, config, ranking, tag):
    icl_dir = tmp_path / f"icl-{tag}"
    qa_dir = tmp_path / f"qa-{tag}"
    assert main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "icl", "--out", str(icl_dir)]) == 0
    assert main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "qa", "--ranking", str(ranking), "--k", "0,1,2",
                 "--out", str(qa_dir)]) == 0
    return icl_dir, qa_dir


def test_criterion_end_to_end_replay(tmp_path, replay_dir, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    started = time.monotonic()
    cache_dir = tmp_path / "cache"
    config = _write_config(tmp_path, replay_dir, cache_dir)
    ranking = tmp_path / "ranking.json"
    assert main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--out", str(ranking)]) == 0

    icl_dir, qa_dir = _run_evals(tmp_path, config, ranking, "cold")
    for prefix, out_dir in (("icl", icl_dir), ("qa", qa_dir)):
        for name in EVAL_GOLDEN_FILES:
            _assert_golden(out_dir / name, f"{prefix}_{name}")

    # warm rerun: same cache, nothing may change, and every lookup must hit
    icl_dir2, qa_dir2 = _run_evals(tmp_path, config, ranking, "warm")
    for cold, warm in ((icl_dir, icl_dir2), (qa_dir, qa_dir2)):
        for name in AGGREGATE_FILES + ("per_instance.csv",):
            assert (cold / name).read_bytes() == (warm / name).read_bytes()
    for out_dir in (icl_dir2, qa_dir2):
        manifest = load_manifest(out_dir / "manifest.json")
        assert manifest.cache.misses == 0, "warm rerun should be 100% cache hits"
        assert manifest.cache.hits > 0

    report_dir = tmp_path / "report"
    assert main(["report", str(qa_dir / "manifest.json"), "--out", str(report_dir)]) == 0
    domain_rows = (report_dir / "by_domain_k.csv").read_text().splitlines()
    assert len(domain_rows) == 1 + 9  # header + 3 domains x 3 k values
    for name in REPORT_FILES:
        _assert_golden(report_dir / name, f"report_{name}")

    elapsed = time.monotonic() - started
    assert elapsed < 30, f"end-to-end replay took {elapsed:.1f}s"
    _pass("end-to-end-replay")


# -- criterion: constructed separation ----------------------------------------------


def test_criterion_constructed_separation(tmp_path, replay_dir):
    cache_dir = tmp_path / "cache"
    config = _write_config(tmp_path, replay_dir, cache_dir)
    ranking = tmp_path / "ranking.json"
    assert main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--out", str(ranking)]) == 0

    icl_dir = tmp_path / "icl"
    qa_dir = tmp_path / "qa-k2"
    assert main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "icl", "--out", str(icl_dir)]) == 0
    assert main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "qa", "--ranking", str(ranking), "--k", "2",
                 "--out", str(qa_dir)]) == 0

    out = tmp_path / "compare.csv"
    assert main(["compare", str(icl_dir / "manifest.json"), str(qa_dir / "manifest.json"),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scope,icl,qa-ds,delta_qa-ds"
    assert lines[1] == "overall,66.67,100.00,+50.0%"
    _assert_golden(out, "compare_icl_qa_k2.csv")

    icl_value = float(lines[1].split(",")[1])
    assert 60 < icl_value < 70
    assert lines[1].split(",")[3].startswith("+")
    _pass("constructed-separation")


# -- manifests written before eval ids and parse counts were derived ---------------


def _in_older_layout(manifest_path, out_path):
    """Copy an ``eval`` manifest into the layout that also stored its eval
    ids and parse counts beside the rows, and the model in every row."""
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    statuses = [row["parse_status"] for row in doc["rows"]]
    doc["parse_counts"] = {s: statuses.count(s) for s in (PARSE_OK, PARSE_FALLBACK, PARSE_FAILED)}
    doc["eval_ids"] = sorted({row["id"] for row in doc["rows"]})
    model = doc["config"]["lm"]["model"]
    doc["rows"] = [{**row, "model": model} for row in doc["rows"]]
    out_path.write_text(json.dumps(doc), encoding="utf-8")
    return out_path


def test_older_manifest_layout_renders_the_goldens(tmp_path, replay_dir):
    config = _write_config(tmp_path, replay_dir, tmp_path / "cache")
    ranking = tmp_path / "ranking.json"
    assert main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--out", str(ranking)]) == 0
    icl_dir, qa_dir = _run_evals(tmp_path, config, ranking, "cold")
    qa_k2_dir = tmp_path / "qa-k2"
    assert main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "qa", "--ranking", str(ranking), "--k", "2",
                 "--out", str(qa_k2_dir)]) == 0
    runs = {"icl": icl_dir, "qa": qa_dir, "qa-k2": qa_k2_dir}
    older = {name: _in_older_layout(run_dir / "manifest.json", tmp_path / f"{name}.json")
             for name, run_dir in runs.items()}
    for name, path in older.items():
        assert load_manifest(path) == load_manifest(runs[name] / "manifest.json")

    report_dir = tmp_path / "report"
    assert main(["report", str(older["qa"]), "--out", str(report_dir)]) == 0
    for name in REPORT_FILES:
        _assert_golden(report_dir / name, f"report_{name}")
    out = tmp_path / "compare.csv"
    assert main(["compare", str(older["icl"]), str(older["qa-k2"]), "--out", str(out)]) == 0
    _assert_golden(out, "compare_icl_qa_k2.csv")


# -- criterion: optional live smoke (not CI-gated) ------------------------------------


SMOKE_ENDPOINT = os.environ.get("QASUM_SMOKE_ENDPOINT")


@pytest.mark.skipif(not SMOKE_ENDPOINT, reason="QASUM_SMOKE_ENDPOINT not set")
def test_criterion_live_smoke(tmp_path):
    corpus_path = tmp_path / "smoke.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for i in range(13):
            fh.write(json.dumps({
                "id": f"s{i:02d}",
                "domain": "News",
                "task": "smoke",
                "article": (
                    f"Story {i}: the harbor market reopened after repairs. Vendors "
                    "returned, shoppers lined up early, and the city praised the "
                    "quick turnaround by the repair crews."
                ),
                "reference": "the harbor market reopened after quick repairs",
            }) + "\n")

    doc = {
        "lm": {
            "model": os.environ.get("QASUM_SMOKE_MODEL", "default"),
            "backend": "http",
            "endpoint": SMOKE_ENDPOINT,
            "max_in_flight": 2,
        },
        "pool_fraction": 0.2,
        "seed": 0,
        "icl_examples": 1,
        "cache_dir": str(tmp_path / "cache"),
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))

    out_dir = tmp_path / "run"
    assert main(["eval", "--corpus", str(corpus_path), "--config", str(config),
                 "--method", "icl", "--out", str(out_dir)]) == 0
    manifest = load_manifest(out_dir / "manifest.json")
    assert len(manifest.rows) == 10
    assert manifest.parse_counts["ok"] >= 8
    for row in manifest.rows:
        for score in (row.rouge1, row.rouge2, row.rougeL):
            assert 0.0 <= score.f1 <= 1.0
            assert 0.0 <= score.precision <= 1.0
            assert 0.0 <= score.recall <= 1.0
    _pass("live-smoke")
