"""End-to-end flow against a real localhost completion server.

Exercises the production HTTP backend over actual sockets: the same
scripted completion rules as the replay fixtures, served by a threaded
HTTP server, driven through the CLI rank -> eval -> compare -> report
flow. Output must match the replay goldens byte for byte.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
import json
import threading

import pytest

from conftest import CORPUS_PATH, GOLDEN_DIR, MODEL, ScriptedBackend
from qasum.cli import main
from qasum.corpus import load_corpus
from qasum.lm import CompletionRequest


@pytest.fixture(scope="module")
def completion_server():
    corpus = load_corpus(CORPUS_PATH)
    scripted = ScriptedBackend(corpus)

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length))
            request = CompletionRequest(
                model=body["model"],
                prompt=body["prompt"],
                max_tokens=body["max_tokens"],
                greedy=body.get("temperature") == 0.0,
                stop_sequences=tuple(body.get("stop", ())),
                key="",
            )
            text, finish = scripted.complete(request)
            payload = json.dumps(
                {"choices": [{"text": text, "finish_reason": finish}]}
            ).encode("utf-8")
            self.send_response(200)
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


def test_full_flow_over_real_http(tmp_path, completion_server):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "lm": {
            "model": MODEL,
            "backend": "http",
            "endpoint": completion_server,
            "max_in_flight": 4,
            "timeout": 10,
        },
        "pool_fraction": 0.5,
        "seed": 0,
        "icl_examples": 1,
        "cache_dir": str(tmp_path / "cache"),
    }))

    ranking = tmp_path / "ranking.json"
    assert main(["rank", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--out", str(ranking)]) == 0

    icl_dir = tmp_path / "icl"
    qa_dir = tmp_path / "qa"
    assert main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "icl", "--out", str(icl_dir)]) == 0
    assert main(["eval", "--corpus", str(CORPUS_PATH), "--config", str(config),
                 "--method", "qa", "--ranking", str(ranking), "--k", "0,1,2",
                 "--out", str(qa_dir)]) == 0

    # live HTTP results must be indistinguishable from the replay goldens
    for prefix, out_dir in (("icl", icl_dir), ("qa", qa_dir)):
        for name in ("aggregate_method_k.csv", "aggregate_domain_k.csv"):
            assert (out_dir / name).read_bytes() == (GOLDEN_DIR / f"{prefix}_{name}").read_bytes()

    compare = tmp_path / "compare.csv"
    assert main(["compare", str(icl_dir / "manifest.json"), str(qa_dir / "manifest.json"),
                 "--out", str(compare)]) == 0
    assert compare.read_text().splitlines()[0] == "scope,icl,qa-ds,delta_qa-ds"

    report_dir = tmp_path / "report"
    assert main(["report", str(qa_dir / "manifest.json"), "--out", str(report_dir)]) == 0
    assert (report_dir / "by_domain_k.csv").exists()
