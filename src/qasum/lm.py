"""Pluggable text-completion backend with a persistent response cache.

Two backends share one request shape: an HTTP client for any
prompt-in/text-out completion endpoint, and a replay backend that serves
pre-recorded responses for deterministic tests. The HTTP client is built
on the standard library's ``http.client``: it keeps at most one
keep-alive connection per call in flight, reads no proxy settings,
checks HTTPS certificates against the system CA store and does not
follow redirects. Responses are cached on disk, content-addressed by a
digest of the request, so interrupted runs resume without re-spending
LM calls — and a recorded cache directory can be pointed at directly as
a replay fixture.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import functools
import hashlib
import http.client
import json
import os
import threading
import time
import urllib.parse
import weakref

API_KEY_ENV = "QASUM_API_KEY"


class LmError(Exception):
    pass


class BackendUnreachable(LmError):
    pass


class RateLimited(LmError):
    pass


class ReplayMiss(LmError):
    """No recording exists for this request; a test-fixture gap, never a
    reason to fall through to the network."""


# Errors that would fail every call alike; callers abort the run on these
# instead of degrading them to failed rows or dropped ranking samples.
FATAL_LM_ERRORS = (ReplayMiss, BackendUnreachable, RateLimited)

# Statuses that say the endpoint, its path or the credentials are wrong, so
# every request will be refused alike. Other 4xx statuses (400, 413, 422)
# can refuse one over-long prompt and stay per-request errors.
_REFUSED_STATUSES = (401, 403, 404, 405)


@dataclass(frozen=True)
class LmConfig:
    model: str
    backend: str = "http"  # http | replay
    endpoint: str = ""
    max_tokens: int = 512
    greedy: bool = True
    timeout: float = 60.0
    max_retries: int = 3
    max_in_flight: int = 1

    def __post_init__(self):
        if self.backend not in ("http", "replay"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if not self.timeout > 0:  # NaN too
            raise ValueError("timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass(frozen=True)
class Generation:
    prompt: str
    completion: str
    finish_reason: str  # stop | length | error
    from_cache: bool
    latency_ms: float


@dataclass(frozen=True)
class CompletionRequest:
    model: str
    prompt: str
    max_tokens: int
    greedy: bool
    stop_sequences: tuple[str, ...]
    key: str


@dataclass(frozen=True)
class CacheStats:
    hits: int
    misses: int
    entries: int


def compute_max_tokens(k: int) -> int:
    """Generation budget for a prompt carrying k questions: 512 + 32*k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 512 + 32 * k


def cache_key(
    model: str, prompt: str, max_tokens: int, greedy: bool, stop_sequences: tuple[str, ...]
) -> str:
    """Stable digest over every field that can change the completion."""
    payload = json.dumps(
        [model, prompt, max_tokens, greedy, list(stop_sequences)],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def entry_path(root: str, key: str) -> str:
    return os.path.join(root, key[:2], key + ".json")


def read_entry(path: str) -> dict | None:
    """The cache entry stored at ``path``, or None if it is absent, not UTF-8
    JSON, not an object or has no string ``completion``."""
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
    except (FileNotFoundError, ValueError):  # absent, truncated, garbled or not UTF-8
        return None
    if not isinstance(entry, dict) or not isinstance(entry.get("completion"), str):
        return None
    return entry


def make_entry(request: CompletionRequest, completion: str, finish_reason: str) -> dict:
    return {
        "model": request.model,
        "prompt": request.prompt,
        "max_tokens": request.max_tokens,
        "greedy": request.greedy,
        "stop_sequences": list(request.stop_sequences),
        "completion": completion,
        "finish_reason": finish_reason,
        "timestamp": time.time(),
    }


class ResponseCache:
    """Disk cache, one JSON entry per file under ``<dir>/<2 hex>/<digest>.json``.

    Entries are published atomically (write-then-rename), so concurrent
    readers never observe a partial entry. With no directory nothing is
    stored and every lookup is a miss. Hit/miss/entry counters are
    in-process and monotone.
    """

    def __init__(self, root: str | None):
        self._root = root
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._entries = 0
        if root:
            os.makedirs(root, exist_ok=True)

    def get(self, key: str) -> dict | None:
        """The stored entry, or None on a miss. An entry that ``read_entry``
        cannot read is a miss too, so the caller asks the backend again and
        ``put`` replaces it."""
        entry = read_entry(entry_path(self._root, key)) if self._root else None
        with self._lock:
            if entry is None:
                self._misses += 1
            else:
                self._hits += 1
        return entry

    def put(self, key: str, entry: dict) -> None:
        if not self._root:
            return
        path = entry_path(self._root, key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + f".tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, ensure_ascii=False)
        os.replace(tmp, path)
        with self._lock:
            self._entries += 1

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(self._hits, self._misses, self._entries)


def _close_connections(idle: list) -> None:
    while idle:
        idle.pop().close()


class HttpBackend:
    """POSTs ``{model, prompt, max_tokens, temperature, stop}`` as JSON and
    reads the first completion text; retries transient failures with backoff.

    Idle keep-alive connections wait in one list: a call takes one, or opens
    a new one when the list is empty, and puts it back after a complete
    reply. So there are never more connections than calls in flight.
    """

    def __init__(self, config: LmConfig, *, sleep=time.sleep):
        if not config.endpoint:
            raise ValueError("http backend requires an endpoint")
        url = urllib.parse.urlsplit(config.endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint is not an http(s) URL with a host: {config.endpoint!r}")
        if url.username is not None:
            raise ValueError("endpoint must not carry credentials; set QASUM_API_KEY instead")
        # An HTTPSConnection checks the server's certificate against the
        # system CA store by default.
        connection = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        self._new_connection = functools.partial(
            connection, url.hostname, url.port, timeout=config.timeout
        )
        self._path = url.path or "/"
        if url.query:
            self._path += "?" + url.query
        self._config = config
        self._sleep = sleep
        self._idle: list = []
        weakref.finalize(self, _close_connections, self._idle)

    def complete(self, request: CompletionRequest) -> tuple[str, str]:
        body: dict = {
            "model": request.model,
            "prompt": request.prompt,
            "max_tokens": request.max_tokens,
        }
        if request.greedy:
            body["temperature"] = 0.0
        if request.stop_sequences:
            body["stop"] = list(request.stop_sequences)
        payload = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json", "User-Agent": "qasum"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        attempts = self._config.max_retries + 1
        last_error: Exception | None = None
        rate_limited = False
        for attempt in range(attempts):
            try:
                status, reply, location = self._post(payload, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                rate_limited = False
            else:
                if status == 429:
                    last_error = LmError("rate limited (429)")
                    rate_limited = True
                elif status >= 500:
                    last_error = LmError(f"server error ({status})")
                    rate_limited = False
                elif status in _REFUSED_STATUSES:
                    text = reply[:500].decode("utf-8", "replace")
                    raise BackendUnreachable(f"endpoint refused the request ({status}): {text}")
                elif status >= 400:
                    text = reply[:500].decode("utf-8", "replace")
                    raise LmError(f"request rejected ({status}): {text}")
                elif status >= 300:
                    raise BackendUnreachable(
                        f"endpoint redirected ({status}) to {location}; redirects are not followed"
                    )
                else:
                    return self._parse_response(reply)
            if attempt < attempts - 1:
                self._sleep(0.5 * 2**attempt)
        if rate_limited:
            raise RateLimited(f"gave up after {attempts} attempts: {last_error}")
        raise BackendUnreachable(f"gave up after {attempts} attempts: {last_error}")

    def _post(self, payload: bytes, headers: dict) -> tuple[int, bytes, str | None]:
        """One POST on an idle connection, or on a new one if none is idle."""
        try:
            conn = self._idle.pop()
        except IndexError:
            return self._exchange(self._new_connection(), payload, headers)
        try:
            return self._exchange(conn, payload, headers)
        except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
            # The server may close an idle keep-alive connection at any time.
            # A request that fails on one goes once more on a new connection
            # (RFC 9112 section 9.3.1); a completion request changes no state
            # on the server, so sending it twice is safe.
            return self._exchange(self._new_connection(), payload, headers)

    def _exchange(self, conn, payload: bytes, headers: dict) -> tuple[int, bytes, str | None]:
        try:
            conn.request("POST", self._path, payload, headers)
            resp = conn.getresponse()
            reply = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            self._idle.append(conn)
        return resp.status, reply, resp.getheader("Location")

    @staticmethod
    def _parse_response(reply: bytes) -> tuple[str, str]:
        try:
            choice = json.loads(reply)["choices"][0]
            text = choice["text"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise LmError(f"malformed completion response: {exc}") from exc
        if not isinstance(text, str):
            raise LmError(f"malformed completion response: text is {type(text).__name__}")
        finish = choice.get("finish_reason") or "stop"
        if finish not in ("stop", "length", "error"):
            finish = "stop"
        return text, finish


class ReplayBackend:
    """Serves completions recorded in cache-entry format, keyed by digest."""

    def __init__(self, fixture_dir: str):
        self._dir = fixture_dir

    def complete(self, request: CompletionRequest) -> tuple[str, str]:
        path = entry_path(self._dir, request.key)
        entry = read_entry(path)
        if entry is None:
            head = request.prompt.splitlines()[0][:80] if request.prompt else ""
            raise ReplayMiss(
                f"no readable recording for key {request.key} at {path} (prompt starts: {head!r})"
            )
        return entry["completion"], entry.get("finish_reason", "stop")


def truncate_at_stop(text: str, stop_sequences: tuple[str, ...]) -> tuple[str, bool]:
    """Cut ``text`` at the earliest stop-sequence occurrence, if any."""
    cut = None
    for stop in stop_sequences:
        if not stop:
            continue
        idx = text.find(stop)
        if idx != -1 and (cut is None or idx < cut):
            cut = idx
    if cut is None:
        return text, False
    return text[:cut], True


class CompletionClient:
    """Cache-fronted completion client, safe for concurrent workers.

    ``map`` is the one place a batch of requests runs: it keeps at most
    ``max_in_flight`` calls going at once and decides which failures abort
    the batch. ``generate`` itself is not throttled.
    """

    def __init__(self, config: LmConfig, *, cache_dir: str | None = None,
                 replay_dir: str | None = None, backend=None):
        self.config = config
        self._cache = ResponseCache(cache_dir)
        if backend is not None:
            self._backend = backend
        elif config.backend == "replay":
            if not replay_dir:
                raise ValueError("replay backend requires replay_dir")
            self._backend = ReplayBackend(replay_dir)
        else:
            self._backend = HttpBackend(config)

    def generate(self, prompt: str, *, max_tokens: int | None = None,
                 stop_sequences: tuple[str, ...] = ()) -> Generation:
        """Complete ``prompt``, consulting the cache first and storing the
        result on a miss; truncates at the first stop sequence."""
        if not prompt:
            raise ValueError("prompt must be non-empty")
        effective_max = max_tokens if max_tokens is not None else self.config.max_tokens
        stops = tuple(stop_sequences)
        key = cache_key(self.config.model, prompt, effective_max, self.config.greedy, stops)
        started = time.perf_counter()

        entry = self._cache.get(key)
        if entry is not None:
            return Generation(
                prompt=prompt,
                completion=entry["completion"],
                finish_reason=entry.get("finish_reason", "stop"),
                from_cache=True,
                latency_ms=(time.perf_counter() - started) * 1000,
            )

        request = CompletionRequest(
            model=self.config.model,
            prompt=prompt,
            max_tokens=effective_max,
            greedy=self.config.greedy,
            stop_sequences=stops,
            key=key,
        )
        text, finish = self._backend.complete(request)
        text, truncated = truncate_at_stop(text, stops)
        if truncated:
            finish = "stop"
        self._cache.put(key, make_entry(request, text, finish))
        return Generation(
            prompt=prompt,
            completion=text,
            finish_reason=finish,
            from_cache=False,
            latency_ms=(time.perf_counter() - started) * 1000,
        )

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]`` on ``max_in_flight`` worker threads.

        A per-request ``LmError`` gives None for its item. ``FATAL_LM_ERRORS``
        would fail every item alike, so they propagate, as does any other
        exception; items not yet started are then cancelled.
        """

        def run(item):
            try:
                return fn(item)
            except FATAL_LM_ERRORS:
                raise
            except LmError:
                return None

        with ThreadPoolExecutor(max_workers=self.config.max_in_flight) as pool:
            return list(pool.map(run, items))

    def cache_stats(self) -> CacheStats:
        return self._cache.stats()
