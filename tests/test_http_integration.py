"""End-to-end flow against a real localhost completion server.

Exercises the production HTTP backend over actual sockets: the same
scripted completion rules as the replay fixtures, served by
``conftest.scripted_server``, driven through the CLI rank -> eval ->
compare -> report flow. Output must match the replay goldens byte for byte.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import subprocess
import sys

from conftest import CORPUS_PATH, GOLDEN_DIR, MODEL, Reply, scripted_server
from qasum.cli import main
from qasum.lm import CompletionRequest

MAX_IN_FLIGHT = 4
SRC = str(Path(__file__).resolve().parent.parent / "src")


def scripted_reply(scripted):
    """A ``scripted_server`` entry that answers each POST as ``scripted`` does."""

    def reply(body: dict) -> Reply:
        # Every request carries its prompt's one stop. A body without it,
        # or with other than one string there, gets no reply, so the flow
        # fails.
        stops = body["stop"]
        if not (type(stops) is list and len(stops) == 1 and type(stops[0]) is str):
            raise ValueError(f"stop is not one string: {stops!r}")
        request = CompletionRequest(
            model=body["model"],
            prompt=body["prompt"],
            max_tokens=body["max_tokens"],
            stop=stops[0],
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


SWEEP = {
    "icl": ("--method", "icl"),
    "qa-ds": ("--method", "qa", "--k", "0,1,2"),
    "qa-global": ("--method", "qa", "--scope", "global", "--k", "0,1,2"),
}
EVAL_OUTPUTS = ("per_instance.csv", "aggregate_method_k.csv", "aggregate_domain_k.csv")


def outputs(out_dir):
    """An eval run's CSVs, and its manifest rows: the manifest's first line
    holds the cache counts and wall time, which differ between runs."""
    files = {name: (out_dir / name).read_bytes() for name in EVAL_OUTPUTS}
    files["manifest rows"] = (out_dir / "manifest.json").read_bytes().split(b"\n", 1)[1]
    return files


def test_a_sweep_started_together_on_one_cold_store_matches_one_run_after_another(
        tmp_path, scripted_backend):
    with scripted_server(scripted_reply(scripted_backend)) as server:
        def config(name):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                "lm": {"model": MODEL, "backend": "http", "endpoint": server.url, "timeout": 10},
                "pool_fraction": 0.5,
                "seed": 0,
                "icl_examples": 1,
                "cache_dir": str(tmp_path / f"{name}-cache"),
            }))
            return str(path)

        ranking = tmp_path / "ranking.json"
        assert main(["rank", "--corpus", str(CORPUS_PATH), "--config", config("rank"),
                     "--out", str(ranking)]) == 0

        def argv(name, sweep):
            return ["eval", *SWEEP[name], "--corpus", str(CORPUS_PATH), "--config", config(sweep),
                    "--ranking", str(ranking), "--out", str(tmp_path / sweep / name)]

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        together = [subprocess.Popen([sys.executable, "-m", "qasum.cli", *argv(name, "together")],
                                     env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                     text=True)
                    for name in SWEEP]
        for process in together:
            _, err = process.communicate(timeout=60)
            assert (process.returncode, err) == (0, "")
        for name in SWEEP:
            assert main(argv(name, "in-turn")) == 0

    for name in SWEEP:
        assert outputs(tmp_path / "together" / name) == outputs(tmp_path / "in-turn" / name)
