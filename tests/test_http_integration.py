"""End-to-end flow against a real localhost completion server.

Exercises the production HTTP backend over actual sockets: the same
scripted completion rules as the replay fixtures, served by
``conftest.scripted_server``, driven through the CLI rank -> eval ->
compare -> report flow. Output must match the replay goldens byte for byte.
"""

from __future__ import annotations

import json

from conftest import CORPUS_PATH, GOLDEN_DIR, MODEL, Reply, scripted_server
from qasum.cli import main
from qasum.lm import CompletionRequest

MAX_IN_FLIGHT = 4


def scripted_reply(scripted):
    """A ``scripted_server`` entry that answers each POST as ``scripted`` does."""

    def reply(body: dict) -> Reply:
        request = CompletionRequest(
            model=body["model"],
            prompt=body["prompt"],
            max_tokens=body["max_tokens"],
            greedy=body.get("temperature") == 0.0,
            stop_sequences=tuple(body.get("stop", ())),
            key="",
        )
        text, finish = scripted.complete(request)
        choices = {"choices": [{"text": text, "finish_reason": finish}]}
        return Reply(body=json.dumps(choices).encode("utf-8"))

    return reply


def test_full_flow_over_real_http(tmp_path, scripted_backend):
    with scripted_server(scripted_reply(scripted_backend)) as server:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "lm": {
                "model": MODEL,
                "backend": "http",
                "endpoint": server.url,
                "max_in_flight": MAX_IN_FLIGHT,
                "timeout": 10,
            },
            "pool_fraction": 0.5,
            "seed": 0,
            "icl_examples": 1,
            "cache_dir": str(tmp_path / "cache"),
        }))

        def run(*argv):
            # Keep-alive: a command opens no more connections than it
            # has calls in flight.
            before = server.connections
            assert main([*argv, "--corpus", str(CORPUS_PATH), "--config", str(config)]) == 0
            assert server.connections - before <= MAX_IN_FLIGHT

        ranking = tmp_path / "ranking.json"
        icl_dir = tmp_path / "icl"
        qa_dir = tmp_path / "qa"
        run("rank", "--out", str(ranking))
        run("eval", "--method", "icl", "--out", str(icl_dir))
        run("eval", "--method", "qa", "--ranking", str(ranking), "--k", "0,1,2",
            "--out", str(qa_dir))
        assert 0 < server.connections <= 3 * MAX_IN_FLIGHT

    # live HTTP results must be indistinguishable from the replay goldens
    for prefix, out_dir in (("icl", icl_dir), ("qa", qa_dir)):
        for name in ("aggregate_method_k.csv", "aggregate_domain_k.csv", "per_instance.csv"):
            assert (out_dir / name).read_bytes() == (GOLDEN_DIR / f"{prefix}_{name}").read_bytes()

    compare = tmp_path / "compare.csv"
    assert main(["compare", str(icl_dir / "manifest.json"), str(qa_dir / "manifest.json"),
                 "--out", str(compare)]) == 0
    assert compare.read_text().splitlines()[0] == "scope,icl,qa-ds,delta_qa-ds"

    report_dir = tmp_path / "report"
    assert main(["report", str(qa_dir / "manifest.json"), "--out", str(report_dir)]) == 0
    for name in ("overall.md", "by_domain_k.csv", "parse_summary.csv"):
        assert (report_dir / name).read_bytes() == (GOLDEN_DIR / f"report_{name}").read_bytes()
