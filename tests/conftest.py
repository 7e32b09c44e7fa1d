"""Shared fixtures: the tiny corpus, a rule-driven scripted backend, a
session-scoped replay directory recorded by running the real pipeline once
against the scripted backend, and a localhost completion server that plays
scripted replies and faults."""

from __future__ import annotations

from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
import json
from pathlib import Path
import socket
import ssl
import struct
import threading
import time

import pytest

from qasum.corpus import Corpus, load_corpus
from qasum.harness import ExperimentConfig, run_eval, run_rank
from qasum.lm import CompletionRequest, LmConfig
from qasum.metrics import LABEL_FIELDS, ScoreTable
from qasum.prompting import (
    QA_INSTRUCTION,
    SINGLE_QA_INSTRUCTION,
    VANILLA_INSTRUCTION,
)
from qasum.questions import builtin_bank

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_PATH = FIXTURES / "corpus_6.jsonl"
GOLDEN_DIR = FIXTURES / "golden"
PROMPT_GOLDEN_DIR = FIXTURES / "prompts"
# A self-signed certificate for 127.0.0.1 and localhost, and its key: no
# CA store trusts it.
TLS_CERT = FIXTURES / "localhost-cert.pem"
TLS_KEY = FIXTURES / "localhost-key.pem"

# JSON documents that the standard decoder refuses although they are
# well formed: nesting deeper than its recursion limit, and an integer
# longer than int() converts (4,300 digits).
UNDECODABLE_JSON = {
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
    "huge-integer": '{"id": ' + "7" * 5_000 + "}",
}

MODEL = "scripted-1"
SEED = 0
POOL_FRACTION = 0.5

# Scripted answer quality per question key: how many leading reference
# tokens (out of 10) the canned answer reuses. Junk tokens pad to 10 words,
# so each key's overlap precision is exactly tokens/10; tone is fully
# disjoint from every reference.
ANSWER_TOKENS = {
    "topic": 10,
    "key_pts": 9,
    "entities": 8,
    "timeline": 7,
    "details": 6,
    "conclude": 5,
    "challenges": 4,
    "insights": 3,
    "audience": 2,
    "tone": 0,
}

EXPECTED_RANK_ORDER = (
    "topic",
    "key_pts",
    "entities",
    "timeline",
    "details",
    "conclude",
    "challenges",
    "insights",
    "audience",
    "tone",
)


def canned_answer(key: str, reference: str) -> str:
    tokens = reference.split()
    keep = ANSWER_TOKENS[key]
    if keep == 0:
        return "purple monkey dishwasher"
    return " ".join(tokens[:keep] + [f"zz{i}" for i in range(10 - keep)])


def half_reference(reference: str) -> str:
    tokens = reference.split()
    return " ".join(tokens[: len(tokens) // 2])


class ScriptedBackend:
    """Rule-driven completion source: recognizes the three prompt shapes and
    answers from the fixture corpus, so any prompt the harness builds gets a
    deterministic, hand-checkable completion."""

    def __init__(self, corpus: Corpus):
        self._by_article = {inst.article: inst for inst in corpus}
        self._key_by_text = {q.text: q.key for q in builtin_bank()}
        self._text_by_key = {q.key: q.text for q in builtin_bank()}

    def _instance(self, article: str):
        inst = self._by_article.get(article)
        if inst is None:
            raise AssertionError(f"scripted backend saw unknown article: {article[:60]!r}")
        return inst

    def complete(self, request: CompletionRequest) -> tuple[str, str]:
        prompt = request.prompt
        if prompt.startswith(SINGLE_QA_INSTRUCTION):
            body = prompt[len(SINGLE_QA_INSTRUCTION) + 1 :]
            article, rest = body.split("\nQ: ", 1)
            question_text = rest.rsplit("\nA:", 1)[0]
            key = self._key_by_text[question_text]
            inst = self._instance(article)
            return canned_answer(key, inst.reference), "stop"

        if QA_INSTRUCTION in prompt:
            target = prompt[prompt.rindex(QA_INSTRUCTION) + len(QA_INSTRUCTION) + 1 :]
            article, rest = target.split("\nQ1: ", 1)
            q_block = "Q1: " + rest.rsplit("\nA:", 1)[0]
            keys = [
                self._key_by_text[line.split(": ", 1)[1]]
                for line in q_block.splitlines()
            ]
            inst = self._instance(article)
            answers = " ".join(
                f"A{i}: {canned_answer(key, inst.reference)}."
                for i, key in enumerate(keys, start=1)
            )
            return f" {answers}\nSummary: {inst.reference}.", "stop"

        if VANILLA_INSTRUCTION in prompt:
            target = prompt[prompt.rindex(VANILLA_INSTRUCTION) + len(VANILLA_INSTRUCTION) + 1 :]
            article = target.rsplit("\nSummary:", 1)[0]
            inst = self._instance(article)
            return f" {half_reference(inst.reference)}", "stop"

        raise AssertionError(f"scripted backend saw unknown prompt shape: {prompt[:60]!r}")


class StubBackend:
    """Fixed or callable completion, with a fixed finish reason, for unit
    tests; records every request."""

    def __init__(self, reply="stub completion", finish_reason="stop"):
        self.reply = reply
        self.finish_reason = finish_reason
        self.requests: list[CompletionRequest] = []

    def complete(self, request: CompletionRequest) -> tuple[str, str]:
        self.requests.append(request)
        text = self.reply(request.prompt) if callable(self.reply) else self.reply
        return text, self.finish_reason


def make_lm_config(**overrides) -> LmConfig:
    base = dict(model=MODEL, backend="replay", max_in_flight=2)
    base.update(overrides)
    return LmConfig(**base)


def make_config(
    *,
    method: str = "icl",
    k_values=(0,),
    ranking=None,
    cache_dir=None,
    replay_dir=None,
    **overrides,
) -> ExperimentConfig:
    base = dict(
        corpus=str(CORPUS_PATH),
        lm=make_lm_config(),
        method=method,
        k_values=tuple(k_values),
        ranking=str(ranking) if ranking else None,
        icl_examples=1,
        pool_fraction=POOL_FRACTION,
        seed=SEED,
        cache_dir=str(cache_dir) if cache_dir else None,
        replay_dir=str(replay_dir) if replay_dir else None,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def table_of(rows) -> ScoreTable:
    """``ScoreRow``s as the ``ScoreTable`` a manifest holds and ``aggregate``
    reads: each label column, then each metric's precision, recall and F1."""
    rows = list(rows)
    return ScoreTable(*([getattr(row, name) for row in rows] for name in LABEL_FIELDS),
                      ([getattr(getattr(row, metric), part) for row in rows]
                       for metric in ("rouge1", "rouge2", "rougeL")
                       for part in ("precision", "recall", "f1")))


@pytest.fixture(scope="session")
def fixture_corpus() -> Corpus:
    return load_corpus(CORPUS_PATH)


@pytest.fixture(scope="session")
def scripted_backend(fixture_corpus) -> ScriptedBackend:
    return ScriptedBackend(fixture_corpus)


@pytest.fixture(scope="session")
def replay_dir(tmp_path_factory, scripted_backend) -> Path:
    """Record every completion the acceptance flows need by running the
    pipeline once against the scripted backend; the resulting cache
    directory doubles as the replay fixture directory."""
    root = tmp_path_factory.mktemp("recorded")
    replay = root / "replay"
    ranking = root / "ranking.json"

    cfg = make_config(method="qa", cache_dir=replay)
    run_rank(cfg, ranking, backend=scripted_backend)
    run_eval(
        make_config(method="icl", cache_dir=replay),
        root / "icl",
        backend=scripted_backend,
    )
    run_eval(
        make_config(method="qa", k_values=(0, 1, 2), ranking=ranking,
                    cache_dir=replay),
        root / "qa",
        backend=scripted_backend,
    )
    return replay


@dataclass(frozen=True)
class Reply:
    """One scripted answer to a POST, sent after ``delay`` seconds.

    ``fault`` is None for a keep-alive reply, or one of: ``close`` (the
    reply, then the connection closes without notice), ``reset`` (the
    connection is reset before any reply), ``truncate`` (the connection
    closes halfway through the body).

    ``framing`` says how the body's end is marked: ``length`` (an HTTP/1.1
    reply with Content-Length), ``chunked`` (an HTTP/1.1 reply in two
    chunks and an empty last one, the first chunk with an extension, then
    a trailer field) or ``close`` (an HTTP/1.0 reply with no length, whose
    body ends when the server closes the connection).
    """

    status: int = 200
    body: bytes = b'{"choices": [{"text": "ok", "finish_reason": "stop"}]}'
    headers: tuple[tuple[str, str], ...] = ()
    fault: str | None = None
    delay: float = 0.0
    framing: str = "length"


def frame_reply(reply: Reply) -> bytes:
    """``reply``'s status line, header block and body as they go on the
    wire, framed by ``reply.framing``."""
    body = reply.body[: len(reply.body) // 2] if reply.fault == "truncate" else reply.body
    head = [f"HTTP/1.{0 if reply.framing == 'close' else 1} {reply.status} Scripted",
            "Content-Type: application/json"]
    if reply.framing == "length":
        head.append(f"Content-Length: {len(reply.body)}")
    elif reply.framing == "chunked":
        head.append("Transfer-Encoding: chunked")
        half = len(body) // 2
        body = b"%x;note=first\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Checksum: none\r\n\r\n" % (
            half, body[:half], len(body) - half, body[half:])
    head.extend(f"{name}: {value}" for name, value in reply.headers)
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


@dataclass(frozen=True)
class Post:
    path: str
    headers: dict
    body: dict


@dataclass
class ServerLog:
    url: str
    posts: list[Post] = field(default_factory=list)
    connections: int = 0


class _ScriptServer(ThreadingHTTPServer):
    # Handler threads are joined on close, so no test leaves one running.
    daemon_threads = False

    def handle_error(self, request, client_address):
        pass  # a client that timed out or went away; the faults cause these by design


@contextmanager
def scripted_server(*script: Reply | Callable[[dict], Reply], tls: bool = False):
    """A localhost completion endpoint that answers the n-th POST with
    ``script[n]``, and every POST after the script with its last reply. An
    entry may also be a callable that takes the POST's parsed JSON body and
    returns the ``Reply``. Yields a ``ServerLog`` of the POSTs and the
    connections it accepted. With ``tls`` it speaks HTTPS with the
    self-signed ``TLS_CERT``."""
    log = ServerLog(url="")
    lock = threading.Lock()
    open_connections: set[socket.socket] = set()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def setup(self):
            super().setup()
            with lock:
                log.connections += 1
                open_connections.add(self.connection)

        def finish(self):
            with lock:
                open_connections.discard(self.connection)
            super().finish()

        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            with lock:
                log.posts.append(Post(self.path, dict(self.headers), body))
                reply = script[min(len(log.posts), len(script)) - 1]
            if callable(reply):
                reply = reply(body)
            if reply.fault == "reset":
                # With a zero linger time the socket's last close sends RST.
                self.connection.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                self.connection.close()
                self.close_connection = True
                return
            time.sleep(reply.delay)
            self.wfile.write(frame_reply(reply))
            self.close_connection = (reply.fault in ("close", "truncate")
                                     or reply.framing == "close")

        def log_message(self, *args):
            pass

    server = _ScriptServer(("127.0.0.1", 0), Handler)
    if tls:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(TLS_CERT, TLS_KEY)
        # The handshake runs on the handler thread, after the connection is counted.
        server.socket = context.wrap_socket(server.socket, server_side=True,
                                            do_handshake_on_connect=False)
    # A short poll interval makes shutdown() return quickly at the end of a test.
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    scheme = "https" if tls else "http"
    log.url = f"{scheme}://127.0.0.1:{server.server_address[1]}/v1/completions"
    try:
        yield log
    finally:
        server.shutdown()
        with lock:
            idle = list(open_connections)
        for conn in idle:  # wake handlers waiting for a next request
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
