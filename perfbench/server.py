"""Localhost completion server around the scripted source.

Usage: python3 perfbench/server.py
Prints ``port <n>`` on stdout once it listens on 127.0.0.1, then serves
until terminated. ``POST`` takes qasum's completion request body and
returns ``{"choices": [{"text", "finish_reason"}]}``; ``GET /stats``
returns ``{"requests": <completion requests served>}``.

Each response goes out in one write on an HTTP/1.1 keep-alive connection
with TCP_NODELAY set. A handler that writes headers and body separately
stalls every call on Nagle's algorithm and delayed ACKs, and the
benchmark would then time this server rather than qasum.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
import json
import os
import sys
import threading

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from synth import ScriptedSource  # noqa: E402


class CompletionServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address):
        super().__init__(address, Handler)
        self.source = ScriptedSource()
        self.requests = 0
        self.lock = threading.Lock()


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.requests += 1
        text = self.server.source.complete_prompt(body["prompt"])
        self._send({"choices": [{"text": text, "finish_reason": "stop"}]})

    def do_GET(self):
        if self.path != "/stats":
            self.send_error(404)
            return
        with self.server.lock:
            self._send({"requests": self.server.requests})

    def _send(self, doc) -> None:
        payload = json.dumps(doc, ensure_ascii=False).encode("utf-8")
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + payload)

    def log_message(self, *args):
        pass


def main() -> None:
    server = CompletionServer(("127.0.0.1", 0))
    print(f"port {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
